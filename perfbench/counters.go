package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The counters here are read from outside the program under test: the
// kernel's per-process I/O and CPU accounting, the Go runtime's memory
// statistics, and a CPU profile attributed to packages by stack.

// procIO is a snapshot of /proc/self/io; ok is false where the file is
// missing, and the syscall fields are then unavailable, not zero.
type procIO struct {
	ok                  bool
	syscr, syscw, wchar int64
}

func readProcIO() procIO {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}
	}
	defer f.Close()
	p := procIO{ok: true}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, found := strings.Cut(sc.Text(), ":")
		if !found {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "syscr":
			p.syscr = n
		case "syscw":
			p.syscw = n
		case "wchar":
			p.wchar = n
		}
	}
	return p
}

func (p procIO) sub(o procIO) procIO {
	return procIO{ok: p.ok && o.ok, syscr: p.syscr - o.syscr, syscw: p.syscw - o.syscw,
		wchar: p.wchar - o.wchar}
}

// cpuTimes is the process's user and system CPU seconds (getrusage).
type cpuTimes struct{ user, sys float64 }

func readCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return cpuTimes{user: tv(ru.Utime), sys: tv(ru.Stime)}
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

func (c cpuTimes) total() float64 { return c.user + c.sys }

// steal is the host's cumulative CPU steal in clock ticks, the time
// the hypervisor ran something else while a virtual CPU of this machine
// had work: the first line of /proc/stat, field 8. ok is false where
// the file or field is missing.
type steal struct {
	ok    bool
	ticks int64
}

func readSteal() steal {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return steal{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return steal{}
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	return steal{ok: err == nil, ticks: n}
}

// since renders the steal between o and s in seconds, at the kernel's
// usual 100 ticks per second.
func (s steal) since(o steal) string {
	if !s.ok || !o.ok {
		return "unavailable"
	}
	return fmt.Sprintf("%.2f s", float64(s.ticks-o.ticks)/100)
}

// memCounters is the runtime's cumulative allocation and GC count.
type memCounters struct{ alloc, gcs uint64 }

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{alloc: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
}

// heapSampler records the peak live heap between start and stop: the
// bytes the last completed GC marked reachable, read every few
// milliseconds without stopping the world. Live bytes, unlike the heap
// in use, do not depend on how much garbage awaits the next collection.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []rtmetrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak seen.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// layerOf maps a function name to the repository package it belongs to,
// or "" for functions outside hybridgraph/internal.
func layerOf(fn string) string {
	const prefix = "hybridgraph/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attributeProfile reads a gzipped pprof CPU profile and returns each
// layer's share of the sampled CPU time. Every sample goes to the
// innermost hybridgraph/internal/<pkg> frame on its stack, so system
// calls, runtime work and standard-library code (compress/flate, say)
// count toward the layer that called them; samples with no such frame
// go to "other".
func attributeProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	funcs := make(map[uint64]string, len(p.funcName))
	for id, si := range p.funcName {
		if si >= 0 && int(si) < len(p.strings) {
			funcs[id] = p.strings[si]
		}
	}
	locLayer := make(map[uint64]string, len(p.locFuncs))
	for id, fns := range p.locFuncs {
		for _, f := range fns { // innermost inlined frame first
			if l := layerOf(funcs[f]); l != "" {
				locLayer[id] = l
				break
			}
		}
	}
	weight := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		layer := "other"
		for _, loc := range s.locs { // leaf first
			if l := locLayer[loc]; l != "" {
				layer = l
				break
			}
		}
		weight[layer] += s.value
		total += s.value
	}
	if total == 0 {
		return map[string]float64{}, nil
	}
	for l := range weight {
		weight[l] /= total
	}
	return weight, nil
}

// profile holds the parts of the pprof protobuf attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64
	funcName map[uint64]int64
	strings  []string
}

type profSample struct {
	locs  []uint64
	value float64 // the last sample value: CPU nanoseconds
}

// protoField is one decoded protobuf field: a varint or a byte slice.
type protoField struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

var errProto = errors.New("cpu profile: malformed protobuf")

// protoFields splits one protobuf message into its fields. Only the wire
// types pprof writes (varint, 64-bit, length-delimited, 32-bit) occur.
func protoFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f protoField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile parses the Profile message (profile.proto): samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(raw []byte) (*profile, error) {
	fields, err := protoFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	for _, f := range fields {
		switch f.num {
		case 2:
			sub, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, sf := range sub {
				vs, err := sf.varints()
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					if len(vs) > 0 {
						s.value = float64(int64(vs[len(vs)-1]))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4:
			sub, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					id = sf.varint
				case 4:
					line, err := protoFields(sf.bytes)
					if err != nil {
						return nil, err
					}
					for _, lf := range line {
						if lf.num == 1 {
							fns = append(fns, lf.varint)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5:
			sub, err := protoFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, sf := range sub {
				switch sf.num {
				case 1:
					id = sf.varint
				case 2:
					name = int64(sf.varint)
				}
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	return p, nil
}
