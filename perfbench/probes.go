package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hybridgraph/internal/catalog"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/msgstore"
	"hybridgraph/internal/veblock"
	"hybridgraph/internal/vertexfile"
)

// Probe sizes: repetitions per timing (the median is reported) and the
// number of random svertex reads per repetition.
const (
	probeReps     = 5
	bcastReads    = 20000
	codecFrames   = 200 // lz pays a flate set-up per frame, so time a sample
	pullRoundTrip = 30  // the TCP fabric keeps each response for dedup, so stay small
)

// prober times single layers through their exported functions, sized
// from the workload's own catalog entry: its graph, Vblock layout,
// message buffer and codec.
type prober struct {
	w      workload
	g      *graph.Graph
	layout *veblock.Layout
	dir    string
	rng    *rand.Rand

	eblocks [][]byte   // worker 0's Eblocks in their logical layout
	batch   []comm.Msg // one pull response's messages before combining
	block   int        // the Vblock that response answers
}

type probe struct {
	name string
	run  func(vals map[string]float64) error
}

func newProber(w workload, e *catalog.Entry, dir string) (*prober, error) {
	l, err := veblock.NewLayout(graph.RangePartition(e.Graph().NumVertices, e.Workers()), e.BlocksPer())
	if err != nil {
		return nil, err
	}
	return &prober{w: w, g: e.Graph(), layout: l, dir: filepath.Join(dir, "probes"),
		rng: rand.New(rand.NewSource(1))}, nil
}

// probes lists the probes in run order; veblock fills the payloads the
// codec and comm probes use.
func (p *prober) probes() []probe {
	return []probe{
		{"msgstore", p.msgstore},
		{"veblock", p.veblock},
		{"vertexfile", p.vertexfile},
		{"codec", p.codec},
		{"comm.sort", p.sort},
		{"comm.pull", p.pull},
	}
}

// timeMedian runs fn reps times and returns the median seconds.
func timeMedian(reps int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// msgstore fills an inbox of the workload's MsgBuf capacity four times
// over, so three quarters of the messages spill, then drains it.
func (p *prober) msgstore(vals map[string]float64) error {
	cdc, err := codec.Lookup(p.w.codec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return err
	}
	part := graph.RangePartition(p.g.NumVertices, p.w.workers)[0]
	msgs := make([]comm.Msg, 4*p.w.msgBuf)
	for i := range msgs {
		msgs[i] = comm.Msg{Dst: part.Lo + graph.VertexID(p.rng.Intn(part.Len())), Val: p.rng.Float64()}
	}
	var adds, drains []float64
	for i := 0; i < probeReps; i++ {
		path := filepath.Join(p.dir, fmt.Sprintf("inbox%d", i))
		in := msgstore.NewInbox(path, &diskio.Counter{}, p.w.msgBuf, cdc)
		t0 := time.Now()
		if err := in.AddAll(msgs); err != nil {
			return err
		}
		t1 := time.Now()
		got, err := in.Drain()
		if err != nil {
			return err
		}
		drains = append(drains, time.Since(t1).Seconds())
		adds = append(adds, t1.Sub(t0).Seconds())
		if n := countMsgs(got); n != len(msgs) {
			return fmt.Errorf("drained %d of %d messages", n, len(msgs))
		}
	}
	vals["msgstore.add_ns"] = median(adds) / float64(len(msgs)) * 1e9
	vals["msgstore.drain_s"] = median(drains)
	return nil
}

func countMsgs(m map[graph.VertexID][]float64) int {
	n := 0
	for _, vs := range m {
		n += len(vs)
	}
	return n
}

// veblock builds worker 0's VE-BLOCK file under none and lz and times a
// scan of every one of its Eblocks.
func (p *prober) veblock(vals map[string]float64) error {
	for _, name := range []string{"none", "lz"} {
		cdc, err := codec.Lookup(name)
		if err != nil {
			return err
		}
		st, err := veblock.Build(filepath.Join(p.dir, "veblock."+name), &diskio.Counter{}, p.g, p.layout, 0, cdc)
		if err != nil {
			return err
		}
		if name == "none" {
			if err := p.capture(st); err != nil {
				st.Close()
				return err
			}
		}
		var bytes int64
		sec, err := timeMedian(3, func() error {
			bytes = 0
			return scanAll(st, p.layout.NumBlocks(), func(s veblock.ScanStats) { bytes += s.FragBytes + s.EdgeBytes },
				func(graph.VertexID, []graph.Half) error { return nil })
		})
		if err != nil {
			st.Close()
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		vals["veblock."+name+".scan_mb_s"] = float64(bytes) / 1e6 / sec
	}
	return nil
}

// scanAll scans every Eblock of st, reporting each scan's byte counts.
func scanAll(st *veblock.Store, blocks int, done func(veblock.ScanStats), fn func(graph.VertexID, []graph.Half) error) error {
	for j := 0; j < st.LocalBlocks(); j++ {
		for i := 0; i < blocks; i++ {
			s, err := st.ScanEblock(j, i, fn)
			if err != nil {
				return err
			}
			done(s)
		}
	}
	return nil
}

// capture keeps worker 0's Eblocks in their logical layout for the codec
// probe and sizes the comm probes' batch.
func (p *prober) capture(st *veblock.Store) error {
	var eb []byte
	err := scanAll(st, p.layout.NumBlocks(), func(veblock.ScanStats) {
		if len(eb) > 0 {
			p.eblocks = append(p.eblocks, eb)
		}
		eb = nil
	}, func(src graph.VertexID, edges []graph.Half) error {
		eb = appendFragment(eb, src, edges)
		return nil
	})
	p.pickBatch(st)
	return err
}

// appendFragment re-encodes one scanned fragment in the Eblock's
// logical layout: source and edge count, then (dst, weight) pairs.
func appendFragment(b []byte, src graph.VertexID, edges []graph.Half) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(src))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(edges)))
	for _, h := range edges {
		b = binary.LittleEndian.AppendUint32(b, uint32(h.Dst))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(h.Weight))
	}
	return b
}

// pickBatch sizes the comm probes: the messages worker 0's Eblocks
// generate for one Vblock of the next worker, which is what one pull
// response carries before combining.
func (p *prober) pickBatch(st *veblock.Store) {
	lo, _ := p.layout.WorkerBlocks(min(1, p.w.workers-1))
	p.block = lo
	n := 0
	for j := 0; j < st.LocalBlocks(); j++ {
		_, _, edges := st.EblockSize(j, lo)
		n += int(edges)
	}
	b := p.layout.Blocks[lo]
	p.batch = make([]comm.Msg, max(n, 1))
	for i := range p.batch {
		p.batch[i] = comm.Msg{Dst: b.Lo + graph.VertexID(p.rng.Intn(b.Len())), Val: p.rng.Float64()}
	}
}

// vertexfile random-reads broadcast values from worker 0's vertex file.
func (p *prober) vertexfile(vals map[string]float64) error {
	part := graph.RangePartition(p.g.NumVertices, p.w.workers)[0]
	recs := make([]vertexfile.Record, part.Len())
	for i := range recs {
		recs[i] = vertexfile.Record{ID: part.Lo + graph.VertexID(i), Bcast: [2]float64{float64(i), -float64(i)}}
	}
	st, err := vertexfile.Create(filepath.Join(p.dir, "vertices"), &diskio.Counter{}, part.Lo, recs)
	if err != nil {
		return err
	}
	defer st.Close()
	ids := make([]graph.VertexID, bcastReads)
	for i := range ids {
		ids[i] = part.Lo + graph.VertexID(p.rng.Intn(part.Len()))
	}
	sec, err := timeMedian(3, func() error {
		for _, v := range ids {
			got, err := st.ReadBcast(v, 0)
			if err != nil {
				return err
			}
			if got != float64(v-part.Lo) {
				return fmt.Errorf("vertex %d read %v", v, got)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	vals["vertexfile.read_bcast_ns"] = sec / bcastReads * 1e9
	return nil
}

// codec frames and unframes the first of worker 0's Eblocks with lz.
func (p *prober) codec(vals map[string]float64) error {
	lz, err := codec.Lookup("lz")
	if err != nil {
		return err
	}
	ebs := p.eblocks[:min(len(p.eblocks), codecFrames)]
	var logical int64
	for _, eb := range ebs {
		logical += int64(len(eb))
	}
	if logical == 0 {
		return fmt.Errorf("worker 0 holds no Eblocks")
	}
	frames := make([][]byte, len(ebs))
	enc, err := timeMedian(3, func() error {
		for i, eb := range ebs {
			frames[i] = codec.AppendFrame(frames[i][:0], lz, eb)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var out []byte
	dec, err := timeMedian(3, func() error {
		for i, f := range frames {
			var err error
			if out, _, err = codec.DecodeFrame(out[:0], f); err != nil {
				return err
			}
			if !bytes.Equal(out, ebs[i]) {
				return fmt.Errorf("frame %d did not decode to its Eblock", i)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	vals["codec.lz.encode_mb_s"] = float64(logical) / 1e6 / enc
	vals["codec.lz.decode_mb_s"] = float64(logical) / 1e6 / dec
	return nil
}

// sort times comm.SortByDst on a pull-response-sized batch.
func (p *prober) sort(vals map[string]float64) error {
	work := make([]comm.Msg, len(p.batch))
	sec, err := timeMedian(probeReps, func() error {
		copy(work, p.batch)
		comm.SortByDst(work)
		return nil
	})
	if err != nil {
		return err
	}
	vals["comm.sort_ns_per_msg"] = sec / float64(len(work)) * 1e9
	return nil
}

// stubHandler answers every pull with the same prepared batch.
type stubHandler struct {
	msgs  []comm.Msg
	bytes int64
}

func (h stubHandler) DeliverMessages(*comm.Packet) error { return nil }

func (h stubHandler) RespondPull(int, int) ([]comm.Msg, int64, error) {
	return h.msgs, h.bytes, nil
}

func (h stubHandler) GatherValues([]graph.VertexID, int) ([]comm.GatherResult, error) {
	return nil, nil
}

func (h stubHandler) DeliverSignals([]graph.VertexID, int) error { return nil }

// pull times one block-centric pull round trip on both fabrics against
// a stub that returns the batch, sorted as a real responder sends it.
func (p *prober) pull(vals map[string]float64) error {
	msgs := append([]comm.Msg(nil), p.batch...)
	comm.SortByDst(msgs)
	h := stubHandler{msgs: msgs, bytes: comm.ConcatSize(msgs)}
	roundTrips := func(f comm.Fabric) (float64, error) {
		f.Register(0, h)
		f.Register(1, h)
		return timeMedian(pullRoundTrip, func() error {
			got, _, err := f.PullRequest(0, 1, p.block, 1)
			if err == nil && len(got) != len(msgs) {
				err = fmt.Errorf("pull returned %d of %d messages", len(got), len(msgs))
			}
			return err
		})
	}
	local, err := roundTrips(comm.NewLocal(2))
	if err != nil {
		return err
	}
	tcp, err := comm.NewTCP(2)
	if err != nil {
		return err
	}
	remote, err := roundTrips(tcp)
	tcp.Close()
	if err != nil {
		return err
	}
	vals["comm.local.pull_rtt_us"] = local * 1e6
	vals["comm.tcp.pull_rtt_us"] = remote * 1e6
	return nil
}
