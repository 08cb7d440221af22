package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. bound applies to end-to-end
// metrics only: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a user of the system sees, measured untraced.
// sim_s, io_bytes and net_bytes are pure functions of the seed; a change
// that only moves wall clock must leave them identical.
//
// The wall-clock bounds are wide because the baseline box is a shared
// virtual machine whose neighbours move a whole run's median by 10-20%.
// The byte and simulated-seconds bounds only have to cover the spread
// between seeds (under 4% on sssp-hybrid-web).
var endToEnd = []metricDef{
	{"job_s", "s", "lower", 0.25},
	{"edges_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_s", "s", "lower", 0.2},
	{"io_bytes", "B", "lower", 0.2},
	{"net_bytes", "B", "lower", 0.2},
	{"peak_heap_bytes", "B", "lower", 0.2},
}

// perLayer come from the separate traced run and the layer probes.
// *.cpu_s is the layer's share of the traced run's CPU profile times
// the process CPU seconds getrusage measured over the same interval.
var perLayer = []metricDef{
	{"diskio.write_syscalls", "count", "lower", 0},
	{"diskio.read_syscalls", "count", "lower", 0},
	{"diskio.bytes_per_write_syscall", "B", "higher", 0},
	{"diskio.rr_bytes", "B", "lower", 0},
	{"diskio.rw_bytes", "B", "lower", 0},
	{"diskio.sr_bytes", "B", "lower", 0},
	{"diskio.sw_bytes", "B", "lower", 0},
	{"diskio.rr_ops", "count", "lower", 0},
	{"diskio.rw_ops", "count", "lower", 0},
	{"diskio.sr_ops", "count", "lower", 0},
	{"diskio.sw_ops", "count", "lower", 0},
	{"diskio.cpu_s", "s", "lower", 0},
	{"msgstore.spilled_msgs", "count", "lower", 0},
	{"msgstore.spilled_bytes", "B", "lower", 0},
	{"msgstore.cpu_s", "s", "lower", 0},
	{"msgstore.add_ns", "ns", "lower", 0},
	{"msgstore.drain_s", "s", "lower", 0},
	{"veblock.ebar_bytes", "B", "lower", 0},
	{"veblock.ft_bytes", "B", "lower", 0},
	{"veblock.cpu_s", "s", "lower", 0},
	{"veblock.none.scan_mb_s", "MB/s", "higher", 0},
	{"veblock.lz.scan_mb_s", "MB/s", "higher", 0},
	{"vertexfile.vt_bytes", "B", "lower", 0},
	{"vertexfile.vrr_bytes", "B", "lower", 0},
	{"vertexfile.cpu_s", "s", "lower", 0},
	{"vertexfile.read_bcast_ns", "ns", "lower", 0},
	{"adjstore.et_bytes", "B", "lower", 0},
	{"adjstore.cpu_s", "s", "lower", 0},
	{"codec.phys_read_bytes", "B", "lower", 0},
	{"codec.phys_read_spread", "%", "lower", 0},
	{"codec.read_amplification", "ratio", "lower", 0},
	{"codec.compression_ratio", "ratio", "higher", 0},
	{"codec.cpu_s", "s", "lower", 0},
	{"codec.lz.decode_mb_s", "MB/s", "higher", 0},
	{"codec.lz.encode_mb_s", "MB/s", "higher", 0},
	{"comm.packets", "count", "lower", 0},
	{"comm.pull_requests", "count", "lower", 0},
	{"comm.cpu_s", "s", "lower", 0},
	{"comm.sort_ns_per_msg", "ns", "lower", 0},
	{"comm.local.pull_rtt_us", "us", "lower", 0},
	{"comm.tcp.pull_rtt_us", "us", "lower", 0},
	{"core.step_s_p50", "s", "lower", 0},
	{"core.step_s_max", "s", "lower", 0},
	{"core.unattributed_s", "s", "lower", 0},
	{"core.sparse_steps", "count", "lower", 0},
	{"core.sparse_step_s", "s", "lower", 0},
	{"core.sparse_step_io_bytes", "B", "lower", 0},
	{"core.mode_switches", "count", "lower", 0},
	{"core.push_steps", "count", "lower", 0},
	{"core.bpull_steps", "count", "lower", 0},
	{"core.cpu_s", "s", "lower", 0},
	{"ingest.edges_per_s", "1/s", "higher", 0},
	{"ingest.spill_runs", "count", "lower", 0},
	{"ingest.merge_generations", "count", "lower", 0},
	{"ingest.spill_bytes", "B", "lower", 0},
	{"ingest.cpu_s", "s", "lower", 0},
	{"process.user_s", "s", "lower", 0},
	{"process.sys_s", "s", "lower", 0},
	{"runtime.alloc_bytes", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"trace.traced_job_s", "s", "lower", 0},
	{"trace.overhead_s", "s", "lower", 0},
}

// unavailable marks a metric the platform cannot supply (no
// /proc/self/io, say); it is printed as such and emitted as null.
var unavailable = math.NaN()

// outcome is one benchmark run's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// emit prints every metric in defs as a "name value unit" line and the
// failure fraction, then the one-line JSON result read last.
func emit(w io.Writer, vals map[string]float64, defs []metricDef, attempted, failed int) error {
	o := outcome{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		m := metric{Unit: d.Unit}
		if math.IsNaN(v) {
			fmt.Fprintf(w, "%-32s unavailable\n", d.Name)
		} else {
			m.Value = &v
			fmt.Fprintf(w, "%-32s %.6g %s\n", d.Name, v, d.Unit)
		}
		o.Metrics[d.Name] = m
	}
	fmt.Fprintf(w, "%-32s %.6g (%d of %d setups and jobs)\n", "failed_frac",
		float64(failed)/float64(max(attempted, 1)), failed, attempted)
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the middle of xs (mean of the two middles if even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// summary renders a sample as its count and min/p25/median/p75/max, so
// a run's noise shows next to the median it reports.
func summary(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("n=%d %.4g/%.4g/%.4g/%.4g/%.4g", len(s), s[0], q(.25), median(s), q(.75), s[len(s)-1])
}
