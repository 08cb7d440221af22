package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/catalog"
	"hybridgraph/internal/core"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/ingest"
	"hybridgraph/internal/metrics"
	"hybridgraph/internal/obs"
)

const (
	setupReps = 7 // setups per run; setup_s is their median
	minJobs   = 3 // timed jobs per run, however short the run
)

// runner holds one workload's generated input, oracle and the failures
// counted so far. Every setup and job is attempted once and fails when
// it errors or disagrees with the oracle or with the first repetition.
type runner struct {
	w     workload
	seed  int64
	dir   string
	g     *graph.Graph
	input []byte
	progs []algo.Program
	want  [][]float64 // oracle values per program

	attempted, failed int
	errs              []error

	files    map[string]catalog.FileSum // first setup's manifest
	ident    string                     // first job's identity fields
	setups   int
	physRead []float64 // physical bytes read by each timed job
}

type result struct {
	vals              map[string]float64
	attempted, failed int
}

func newRunner(w workload, seed int64, dir string) (*runner, error) {
	g := w.graph(seed)
	input, err := edgeList(g)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, seed: seed, dir: dir, g: g, input: input, progs: w.programs(g.NumVertices)}
	for _, p := range r.progs {
		r.want = append(r.want, reference(g, p, w.maxSteps()))
	}
	return r, nil
}

// fail counts one failed setup or job.
func (r *runner) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err)
}

// setup streams the edge list into a fresh catalog and checks the entry
// against the generated graph and the first setup's manifest.
func (r *runner) setup() (*catalog.Entry, *ingest.Stats, float64, uint64, error) {
	cat, err := catalog.Open(filepath.Join(r.dir, fmt.Sprintf("catalog%d", r.setups)))
	if err != nil {
		return nil, nil, 0, 0, err
	}
	r.setups++
	r.attempted++
	h := startHeapSampler()
	t0 := time.Now()
	e, st, err := cat.IngestStream("g", bytes.NewReader(r.input), r.w.streamOptions(r.g.NumVertices))
	wall := time.Since(t0).Seconds()
	peak := h.Stop()
	if err != nil {
		r.fail(fmt.Errorf("setup: %w", err))
		return nil, nil, wall, peak, nil
	}
	m := e.Manifest()
	switch {
	case m.Vertices != r.g.NumVertices || m.Edges != int64(r.g.NumEdges()):
		r.fail(fmt.Errorf("setup: entry has %dv/%de, generated %dv/%de",
			m.Vertices, m.Edges, r.g.NumVertices, r.g.NumEdges()))
		return nil, nil, wall, peak, nil
	case r.files == nil:
		r.files = m.Files
	case !reflect.DeepEqual(r.files, m.Files):
		r.fail(fmt.Errorf("setup: entry files differ from the first setup's"))
		return nil, nil, wall, peak, nil
	}
	return e, st, wall, peak, nil
}

// job runs each of the workload's programs once over e, checks every
// result, and returns them merged into one; res is nil when the job
// failed. runs, when non-nil, receives each program's result.
func (r *runner) job(e *catalog.Entry, cfg core.Config, runs func(*metrics.JobResult)) (*metrics.JobResult, float64, uint64) {
	runtime.GC() // start every job from the same heap
	r.attempted++
	h := startHeapSampler()
	t0 := time.Now()
	var results []*metrics.JobResult
	var err error
	for i, p := range r.progs {
		var res *metrics.JobResult
		if res, err = core.Run(e.Graph(), p, cfg, r.w.engine); err != nil {
			break
		}
		if err = checkValues(res.Values, r.want[i], r.w.exact); err != nil {
			break
		}
		results = append(results, res)
	}
	wall := time.Since(t0).Seconds()
	peak := h.Stop()
	if err != nil {
		r.fail(fmt.Errorf("job: %w", err))
		return nil, wall, peak
	}
	res := merge(results)
	if runs != nil {
		for _, p := range results {
			runs(p)
		}
	}
	id := identity(res)
	if r.ident == "" {
		r.ident = id
	} else if id != r.ident {
		r.fail(fmt.Errorf("job: identity fields changed between repetitions:\n  first %s\n  now   %s", r.ident, id))
		return nil, wall, peak
	}
	return res, wall, peak
}

// timed measures the end-to-end metrics. Setup runs until it yields
// the entry every job uses, then one warm-up job runs, then jobs run
// back to back for seconds of job time. The remaining setups are
// spread evenly over those seconds, so that on a shared machine
// setup_s and job_s sample the same stretch of host load; setup time
// does not count toward the seconds.
func (r *runner) timed(seconds float64) (*result, error) {
	var entry *catalog.Entry
	var setupWalls, setupPeaks []float64
	doSetup := func() error {
		e, _, wall, peak, err := r.setup()
		if err != nil {
			return err
		}
		setupWalls = append(setupWalls, wall)
		setupPeaks = append(setupPeaks, float64(peak))
		if entry == nil {
			entry = e
		}
		return nil
	}
	for entry == nil && r.setups < setupReps {
		if err := doSetup(); err != nil {
			return nil, err
		}
	}
	if entry == nil {
		return nil, fmt.Errorf("every setup failed: %v", r.errs)
	}
	steal0 := readSteal()
	cfg := r.w.config(entry)
	r.job(entry, cfg, nil) // warm-up: page cache and lazy runtime set-up
	var res *metrics.JobResult
	var jobWalls, jobPeaks []float64
	window := time.Duration(seconds * float64(time.Second))
	var jobTime time.Duration
	for n := 0; n < minJobs || jobTime < window || r.setups < setupReps; {
		if r.setups < setupReps && jobTime >= window*time.Duration(r.setups)/setupReps {
			if err := doSetup(); err != nil {
				return nil, err
			}
			continue
		}
		t0 := time.Now()
		got, wall, peak := r.job(entry, cfg, nil)
		jobTime += time.Since(t0)
		n++
		if got == nil {
			continue
		}
		res = got
		jobWalls = append(jobWalls, wall)
		jobPeaks = append(jobPeaks, float64(peak))
		r.physRead = append(r.physRead, float64(physReadBytes(got)))
	}
	if res == nil {
		return nil, fmt.Errorf("every job failed: %v", r.errs)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: job_s %s; setup_s %s; host CPU steal %s\n",
		r.w.name, r.seed, summary(jobWalls), summary(setupWalls), readSteal().since(steal0))
	jobS := median(jobWalls)
	vals := map[string]float64{
		"job_s":           jobS,
		"edges_per_s":     float64(r.g.NumEdges()) * float64(len(res.Steps)) / jobS,
		"setup_s":         median(setupWalls),
		"sim_s":           res.SimSeconds,
		"io_bytes":        float64(res.IO.DevTotal()),
		"net_bytes":       float64(res.NetBytes),
		"peak_heap_bytes": max(median(setupPeaks), median(jobPeaks)),
	}
	return &result{vals: vals, attempted: r.attempted, failed: r.failed}, nil
}

// traced repeats setup and one job with the trace journal, the metrics
// registry and a CPU profile on, then runs the layer probes inside the
// same profile, and derives the per-layer metrics. The spans and the
// journal are written under traceDir.
func (r *runner) traced(untimed *result, traceDir string) (*result, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	base := fmt.Sprintf("%s-seed%d", r.w.name, r.seed)
	spans := newSpanLog(fmt.Sprintf("%s-%d", base, time.Now().UnixNano()))
	root := spans.begin("run", 0)

	// Sample at 1 kHz, not the default 100 Hz, so that layers with a
	// few milliseconds of work still register. StartCPUProfile then keeps
	// this rate and warns on standard error that it could not set its own.
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(1000)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	defer pprof.StopCPUProfile() // a no-op once stopped below
	cpu0 := readCPU()

	sp := spans.begin("setup", root)
	e, st, setupWall, _, err := r.setup()
	spans.end(sp)
	if err != nil {
		return nil, err
	}
	if e == nil {
		return nil, fmt.Errorf("traced setup failed: %v", r.errs[len(r.errs)-1])
	}

	var journal bytes.Buffer
	reg := obs.NewRegistry()
	cfg := r.w.config(e)
	cfg.TraceWriter = &journal
	cfg.Metrics = reg
	runtime.GC()
	io0, jcpu0, mem0 := readProcIO(), readCPU(), readMem()
	sp = spans.begin("job", root)
	var runs []*metrics.JobResult
	res, wall, _ := r.job(e, cfg, func(p *metrics.JobResult) { runs = append(runs, p) })
	spans.end(sp)
	io1, jcpu1, mem1 := readProcIO(), readCPU(), readMem()
	if res == nil {
		return nil, fmt.Errorf("traced job failed: %v", r.errs[len(r.errs)-1])
	}
	// Rebuild each program run and its supersteps as child spans, laid
	// end to end from the job's start by their measured wall times.
	at := spans.spans[sp-1].Start
	for i, p := range runs {
		ps := spans.add(fmt.Sprintf("%s %d", p.Algorithm, i), sp, at, at+p.WallSeconds)
		for _, s := range p.Steps {
			spans.add(fmt.Sprintf("superstep %d %s", s.Step, s.Mode), ps, at, at+s.WallSeconds)
			at += s.WallSeconds
		}
	}

	vals := stepMetrics(res, r.g.NumVertices, wall)
	pr, err := newProber(r.w, e, r.dir)
	if err != nil {
		return nil, err
	}
	for _, p := range pr.probes() {
		id := spans.begin("probe "+p.name, root)
		err := p.run(vals)
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}

	pprof.StopCPUProfile()
	cpu := readCPU().sub(cpu0).total()
	spans.end(root)
	shares, err := attributeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, layer := range []string{"diskio", "msgstore", "veblock", "vertexfile", "adjstore", "codec", "comm", "core", "ingest"} {
		vals[layer+".cpu_s"] = shares[layer] * cpu
	}

	pio := io1.sub(io0)
	vals["diskio.write_syscalls"] = unavailable
	vals["diskio.read_syscalls"] = unavailable
	vals["diskio.bytes_per_write_syscall"] = unavailable
	if pio.ok {
		vals["diskio.write_syscalls"] = float64(pio.syscw)
		vals["diskio.read_syscalls"] = float64(pio.syscr)
		vals["diskio.bytes_per_write_syscall"] = float64(pio.wchar) / float64(max(pio.syscw, 1))
	}
	jcpu := jcpu1.sub(jcpu0)
	vals["process.user_s"] = jcpu.user
	vals["process.sys_s"] = jcpu.sys
	vals["runtime.alloc_bytes"] = float64(mem1.alloc - mem0.alloc)
	vals["runtime.gc_cycles"] = float64(mem1.gcs - mem0.gcs)

	snap := reg.Snapshot()
	vals["msgstore.spilled_msgs"] = float64(snap["msgstore.spilled_msgs"])
	vals["msgstore.spilled_bytes"] = float64(snap["msgstore.spilled_bytes"])
	vals["comm.packets"] = float64(snap["comm.packets"])
	vals["comm.pull_requests"] = float64(snap["comm.pull_requests"])

	vals["codec.phys_read_spread"] = spreadPct(append(r.physRead, float64(physReadBytes(res))))
	vals["ingest.edges_per_s"] = float64(st.Edges) / setupWall
	vals["ingest.spill_runs"] = float64(st.Runs)
	vals["ingest.merge_generations"] = float64(st.MergeGenerations)
	vals["ingest.spill_bytes"] = float64(st.SpillWriteBytes)
	vals["trace.traced_job_s"] = wall
	vals["trace.overhead_s"] = wall - untimed.vals["job_s"]

	if err := spans.write(filepath.Join(traceDir, base+".spans.jsonl")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(traceDir, base+".journal.jsonl"), journal.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return &result{vals: vals, attempted: r.attempted, failed: r.failed}, nil
}

// sparseShare is the responder fraction below which a superstep counts
// as sparse: its frontier is tiny but full-scan engines still pay for
// every block.
const sparseShare = 0.01

// stepMetrics derives the per-layer metrics a job's result and its
// supersteps carry: logical bytes per class and per Eq. (7)/(8) part,
// step wall times, sparse steps and hybrid's mode choices. n is the
// graph's vertex count and wall the job's wall time.
func stepMetrics(res *metrics.JobResult, n int, wall float64) map[string]float64 {
	vals := map[string]float64{}
	for c, name := range []string{"rr", "rw", "sr", "sw"} {
		vals["diskio."+name+"_bytes"] = float64(res.IO.Bytes[c])
		vals["diskio."+name+"_ops"] = float64(res.IO.Ops[c])
	}
	var parts metrics.IOBreakdown
	var walls []float64
	var stepSum, sparse, sparseWall, sparseIO, switches, push, bpull float64
	for _, s := range res.Steps {
		parts.Vt += s.Parts.Vt
		parts.Et += s.Parts.Et
		parts.Ebar += s.Parts.Ebar
		parts.Ft += s.Parts.Ft
		parts.Vrr += s.Parts.Vrr
		walls = append(walls, s.WallSeconds)
		stepSum += s.WallSeconds
		if float64(s.Responding) < sparseShare*float64(n) {
			sparse++
			sparseWall += s.WallSeconds
			sparseIO += float64(s.IO.DevTotal())
		}
		if s.SwitchedFrom != "" {
			switches++
		}
		switch s.Mode {
		case string(core.Push):
			push++
		case string(core.BPull):
			bpull++
		}
	}
	sort.Float64s(walls)
	vals["veblock.ebar_bytes"] = float64(parts.Ebar)
	vals["veblock.ft_bytes"] = float64(parts.Ft)
	vals["vertexfile.vt_bytes"] = float64(parts.Vt)
	vals["vertexfile.vrr_bytes"] = float64(parts.Vrr)
	vals["adjstore.et_bytes"] = float64(parts.Et)
	vals["core.step_s_p50"] = median(walls)
	vals["core.step_s_max"] = walls[len(walls)-1]
	vals["core.unattributed_s"] = wall - stepSum
	vals["core.sparse_steps"] = sparse
	vals["core.sparse_step_s"] = sparseWall
	vals["core.sparse_step_io_bytes"] = sparseIO
	vals["core.mode_switches"] = switches
	vals["core.push_steps"] = push
	vals["core.bpull_steps"] = bpull

	logicalRead := res.IO.Bytes[diskio.RandRead] + res.IO.Bytes[diskio.SeqRead]
	physRead := physReadBytes(res)
	vals["codec.phys_read_bytes"] = float64(physRead)
	vals["codec.read_amplification"] = float64(physRead) / float64(max(logicalRead, 1))
	vals["codec.compression_ratio"] = res.CompressionRatio
	return vals
}

// merge folds the results of one job's program runs into one: steps
// concatenated, job-level sums rederived.
func merge(rs []*metrics.JobResult) *metrics.JobResult {
	if len(rs) == 1 {
		return rs[0]
	}
	m := &metrics.JobResult{Engine: rs[0].Engine, Algorithm: rs[0].Algorithm, Codec: rs[0].Codec}
	for _, r := range rs {
		m.Steps = append(m.Steps, r.Steps...)
		m.LoadIO = m.LoadIO.Add(r.LoadIO)
		m.LoadPhysIO = m.LoadPhysIO.Add(r.LoadPhysIO)
	}
	m.Finish()
	return m
}

// physReadBytes is what a job's reads moved after the codec: under lz it
// varies from run to run, so it is never part of the identity check.
func physReadBytes(r *metrics.JobResult) int64 {
	return r.PhysIO.Bytes[diskio.RandRead] + r.PhysIO.Bytes[diskio.SeqRead]
}

// spreadPct is (max - min) / median of xs, in percent.
func spreadPct(xs []float64) float64 {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / median(xs) * 100
}
