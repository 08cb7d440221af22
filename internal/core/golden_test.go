package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// goldenStep is one superstep's charges as JobResult reports them.
type goldenStep struct {
	Step     int             `json:"step"`
	Mode     string          `json:"mode"`
	IO       diskio.Snapshot `json:"io"`
	PhysIO   diskio.Snapshot `json:"phys_io"`
	NetBytes int64           `json:"net_bytes"`
	NetMsgs  int64           `json:"net_msgs"`
}

// TestHotPathGolden pins the per-superstep logical and physical I/O, wire
// bytes, mode sequence, values and trace journal (minus wall clock) of a
// small b-pull PageRank job and a small hybrid SSSP job whose Q^t switches
// between push and b-pull. Changes to how stages, svertex reads or edge
// reads do their real work must leave every byte of this in place.
// Regenerate with `go test ./internal/core -run TestHotPathGolden -update`
// only when a change to the cost model is intended.
func TestHotPathGolden(t *testing.T) {
	jobs := []struct {
		name   string
		g      *graph.Graph
		prog   func() algo.Program
		engine Engine
		cfg    Config
	}{
		{"pagerank-bpull", graph.GenRMAT(1500, 12000, 0.57, 0.19, 0.19, 131),
			func() algo.Program { return algo.NewPageRank(0.85) }, BPull,
			Config{Workers: 3, MsgBuf: 200, MaxSteps: 6, Parallelism: 2}},
		{"sssp-hybrid", graph.GenRMAT(6000, 30000, 0.57, 0.19, 0.19, 132),
			func() algo.Program { return algo.NewSSSP(0) }, Hybrid,
			Config{Workers: 3, MsgBuf: 300, MaxSteps: 30, Parallelism: 2, SenderCombine: true}},
	}
	for _, jb := range jobs {
		t.Run(jb.name, func(t *testing.T) {
			got := goldenRun(t, jb.g, jb.prog(), jb.cfg, jb.engine)
			path := filepath.Join("testdata", jb.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) || i < len(wl); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("%s differs from %s at line %d:\n got  %s\n want %s", jb.name, path, i+1, g, w)
					}
				}
			}
		})
	}
}

// goldenRun runs one traced job and renders its deterministic footprint
// one JSON value per line: the mode sequence, a hash of the values, each
// superstep's charges, then the trace journal with wall-clock fields
// removed, sorted (worker events of one superstep are emitted in
// goroutine order).
func goldenRun(t *testing.T, g *graph.Graph, prog algo.Program, cfg Config, e Engine) []byte {
	t.Helper()
	var trace bytes.Buffer
	cfg.TraceWriter = &trace
	res, err := Run(g, prog, cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	var modes []string
	for _, s := range res.Steps {
		modes = append(modes, s.Mode)
	}
	var out bytes.Buffer
	line := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	line(modes)
	line(valuesHash(res))
	for _, s := range res.Steps {
		line(goldenStep{Step: s.Step, Mode: s.Mode, IO: s.IO, PhysIO: s.PhysIO,
			NetBytes: s.NetBytes, NetMsgs: s.NetMsgs})
	}
	for _, l := range journalSansWall(t, trace.Bytes()) {
		out.WriteString(l)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func valuesHash(res *metrics.JobResult) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.Values {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// journalSansWall re-encodes every journal event without its WallSeconds
// fields (at any depth) and returns the lines sorted.
func journalSansWall(t *testing.T, data []byte) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev any
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.UseNumber() // keep every number's literal exactly
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Bytes(), err)
		}
		b, err := json.Marshal(dropWall(ev))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return lines
}

func dropWall(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "WallSeconds")
		for k, e := range x {
			x[k] = dropWall(e)
		}
	case []any:
		for i, e := range x {
			x[i] = dropWall(e)
		}
	}
	return v
}
