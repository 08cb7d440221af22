// Command perfbench is the repository's benchmark. For one workload it
// generates a seeded graph, streams its edge list into a fresh catalog
// entry, runs the job through core.Run over that entry in a closed loop
// (one job at a time) for the requested seconds, checks every result
// against an in-memory oracle, and prints the end-to-end metrics. With
// -trace 1 it then repeats setup and one job with the trace journal,
// metrics registry and a CPU profile on, runs the layer probes, and
// prints the per-layer metrics instead.
//
//	go run . -workload pr-bpull -seed 7 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all: "+workloadNames())
	seed := flag.Int64("seed", 7, "input generator seed")
	seconds := flag.Float64("seconds", 10, "seconds of timed jobs per run")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a separate traced run instead of the end-to-end ones")
	out := flag.String("out", ".bench_build/perfbench", "directory for scratch catalogs and the traced run's span and journal files")
	flag.Parse()
	// One client on at most two CPUs, the size of the box the baseline
	// was measured on.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(name string, seed int64, seconds float64, traced bool, out string) error {
	// core.Run keeps a job's spill and vertex files in a fresh
	// directory under os.TempDir; point that inside out, so a run
	// writes nowhere else.
	tmp, err := filepath.Abs(filepath.Join(out, "tmp"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return err
	}
	if name != "all" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		res, err := measure(w, seed, seconds, traced, out)
		if err != nil {
			return err
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		return emit(os.Stdout, res.vals, defs, res.attempted, res.failed)
	}
	// all: every workload, end-to-end then traced, in one summary line.
	vals := map[string]float64{}
	var defs []metricDef
	attempted, failed := 0, 0
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			res, err := measure(w, seed, seconds, tr, out)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			d := endToEnd
			if tr {
				d = perLayer
			}
			for _, m := range d {
				key := w.name + "/" + m.Name
				vals[key] = res.vals[m.Name]
				defs = append(defs, metricDef{Name: key, Unit: m.Unit})
			}
			attempted += res.attempted
			failed += res.failed
		}
	}
	return emit(os.Stdout, vals, defs, attempted, failed)
}

// measure runs one workload in its own scratch directory, removed on
// return, and reports the failures it counted next to its metrics.
func measure(w workload, seed int64, seconds float64, traced bool, out string) (*result, error) {
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r, err := newRunner(w, seed, dir)
	if err != nil {
		return nil, err
	}
	res, err := r.timed(seconds)
	if err != nil {
		return nil, err
	}
	if traced {
		res, err = r.traced(res, filepath.Join(out, "traces"))
		if err != nil {
			return nil, err
		}
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, seed, e)
	}
	return res, nil
}
