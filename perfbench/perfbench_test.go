package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/core"
	"hybridgraph/internal/graph"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// tiny shrinks a workload's graph (and its buffer with it) so a test
// can run the whole measurement path in well under a second.
func tiny(t *testing.T, w workload) workload {
	small := map[string]func(int64) *graph.Graph{
		"pr-push-spill":   rmat(600, 4800),
		"pr-bpull":        rmat(600, 4800),
		"sssp-hybrid-web": web(1000, 8000),
		"pr-bpull-lz":     rmat(600, 4800),
	}
	g, ok := small[w.name]
	if !ok {
		t.Fatalf("no tiny graph for workload %s", w.name)
	}
	w.graph = g
	w.msgBuf = 60
	return w
}

func TestOracleMatchesEngines(t *testing.T) {
	cases := []struct {
		g     *graph.Graph
		prog  algo.Program
		steps int
		exact bool
	}{
		{rmat(300, 2400)(3), algo.NewPageRank(0.85), 6, false},
		{web(400, 3200)(3), algo.NewSSSP(0), 200, true},
	}
	for _, c := range cases {
		want := reference(c.g, c.prog, c.steps)
		for _, eng := range []core.Engine{core.Push, core.BPull, core.Hybrid} {
			cfg := core.Config{Workers: 2, MsgBuf: 40, MaxSteps: c.steps, Parallelism: 1}
			res, err := core.Run(c.g, c.prog, cfg, eng)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.prog.Name(), eng, err)
			}
			if err := checkValues(res.Values, want, c.exact); err != nil {
				t.Errorf("%s/%s: %v", c.prog.Name(), eng, err)
			}
		}
	}
}

func TestOracleDetectsWrongValues(t *testing.T) {
	want := []float64{1, 2, math.Inf(1)}
	if err := checkValues([]float64{1, 2, math.Inf(1)}, want, true); err != nil {
		t.Fatal(err)
	}
	if err := checkValues([]float64{1, 2 + 1e-12, math.Inf(1)}, want, false); err != nil {
		t.Fatal(err)
	}
	if checkValues([]float64{1, 2 + 1e-12, math.Inf(1)}, want, true) == nil {
		t.Fatal("exact check accepted a changed value")
	}
	if checkValues([]float64{1, 2.001, math.Inf(1)}, want, false) == nil {
		t.Fatal("relative check accepted a 5e-4 error")
	}
}

// TestEveryMetricEmitted runs each workload, shrunk, through both the
// end-to-end and the traced path and checks the result line carries
// every named metric with its unit and no failure.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		w := tiny(t, w)
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 7, 0.05, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var out bytes.Buffer
			if err := emit(&out, res.vals, defs, res.attempted, res.failed); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var o outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, o.Correct, o.Attempted, o.Failed)
			}
			if len(o.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics, want %d", w.name, len(o.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := o.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || m.Value == nil {
					t.Errorf("%s: metric %s = %+v, want a value in %s", w.name, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// TestTimedMakesEverySetup checks that a timed run makes every setup,
// however short its seconds, and that all of them and the jobs pass.
func TestTimedMakesEverySetup(t *testing.T) {
	w := tiny(t, workloads[0])
	r, err := newRunner(w, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.timed(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r.setups != setupReps || res.failed != 0 || res.attempted < setupReps+1+minJobs {
		t.Errorf("setups %d of %d, attempted %d, failed %d: %v",
			r.setups, setupReps, res.attempted, res.failed, r.errs)
	}
}

// TestSeedChangesOnlyInput checks that the seed reaches the generated
// graph and nothing else: sizes, program and job configuration stay.
func TestSeedChangesOnlyInput(t *testing.T) {
	for _, w := range workloads {
		w := tiny(t, w)
		a, b, again := w.graph(7), w.graph(8), w.graph(7)
		if a.NumVertices != b.NumVertices || a.NumEdges() != b.NumEdges() {
			t.Errorf("%s: seed changed the graph size", w.name)
		}
		ea, _ := edgeList(a)
		eb, _ := edgeList(b)
		ea2, _ := edgeList(again)
		if bytes.Equal(ea, eb) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", w.name)
		}
		if !bytes.Equal(ea, ea2) {
			t.Errorf("%s: seed 7 gave two different inputs", w.name)
		}
		if !reflect.DeepEqual(w.streamOptions(a.NumVertices), w.streamOptions(b.NumVertices)) ||
			!reflect.DeepEqual(w.config(nil), w.config(nil)) {
			t.Errorf("%s: seed changed the set-up or job configuration", w.name)
		}
		ra, err := newRunner(w, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := newRunner(w, 8, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(ra.want, rb.want) {
			t.Errorf("%s: oracle ignored the seed", w.name)
		}
	}
}

func TestAttributeProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for i := 0; i < 20; i++ {
		rmat(20000, 200000)(int64(i))
	}
	pprof.StopCPUProfile()
	shares, err := attributeProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Only graph code ran; the rest is runtime (GC, and race detector
	// code when enabled), which has no repository frame.
	for layer := range shares {
		if layer != "graph" && layer != "other" {
			t.Errorf("profile attributed CPU to %s: %v", layer, shares)
		}
	}
	if shares["graph"] < 0.2 {
		t.Errorf("graph generation got %.2f of the profile: %v", shares["graph"], shares)
	}
	for in, want := range map[string]string{
		"hybridgraph/internal/diskio.(*File).WriteAtClass": "diskio",
		"hybridgraph/internal/core.(*job).run.func1":       "core",
		"compress/flate.(*decompressor).huffSym":           "",
		"main.main":                                        "",
	} {
		if got := layerOf(in); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadSpec   `json:"workloads"`
	EndToEnd   []metricDef      `json:"end_to_end"`
	PerLayer   []perLayerMetric `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type perLayerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantSpec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: 20,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, perLayerMetric{m.Name, m.Unit, m.Better})
	}
	return s
}

// TestBenchmarkSpec keeps BENCHMARK.json in step with the workload and
// metric tables; go test -run BenchmarkSpec -update rewrites it.
func TestBenchmarkSpec(t *testing.T) {
	want := wantSpec()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of date; run go test -run BenchmarkSpec -update")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
