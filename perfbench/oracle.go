package main

import (
	"fmt"
	"math"
	"strings"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

// reference is a plain in-memory BSP run of prog over g: no partitions,
// disk, fabric or message store. It is the oracle every job's values
// are checked against. Messages reach a vertex in ascending source
// order, so a combining engine may differ only by summation order.
func reference(g *graph.Graph, prog algo.Program, maxSteps int) []float64 {
	n := g.NumVertices
	vals := make([]float64, n)
	bcast := make([]float64, n)
	respond := make([]bool, n)
	ctx := func(t int) *algo.Context {
		return &algo.Context{Step: t, NumVertices: n, MaxSteps: maxSteps}
	}
	active := false
	for v := 0; v < n; v++ {
		deg := g.OutDegree(graph.VertexID(v))
		vals[v], respond[v] = prog.Init(ctx(1), graph.VertexID(v), deg)
		if respond[v] {
			bcast[v] = prog.Bcast(vals[v], deg)
			active = true
		}
	}
	inbox := make([][]float64, n)
	for t := 2; t <= maxSteps && active; t++ {
		for v := range inbox {
			inbox[v] = inbox[v][:0]
		}
		for u := 0; u < n; u++ {
			if !respond[u] {
				continue
			}
			for _, h := range g.OutEdges(graph.VertexID(u)) {
				inbox[h.Dst] = append(inbox[h.Dst], prog.MsgValue(bcast[u], h.Weight))
			}
		}
		active = false
		for v := 0; v < n; v++ {
			respond[v] = false
			if len(inbox[v]) == 0 && prog.Style() == algo.Traversal {
				continue
			}
			deg := g.OutDegree(graph.VertexID(v))
			vals[v], respond[v] = prog.Update(ctx(t), graph.VertexID(v), deg, vals[v], inbox[v])
			if respond[v] {
				bcast[v] = prog.Bcast(vals[v], deg)
				active = true
			}
		}
	}
	return vals
}

// checkValues compares a job's values with the oracle's: within 1e-9
// relative for summing programs (PageRank), exactly otherwise (SSSP).
func checkValues(got, want []float64, exact bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d values, want %d", len(got), len(want))
	}
	for v := range want {
		a, b := got[v], want[v]
		if a == b || (!exact && math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))) {
			continue
		}
		return fmt.Errorf("oracle: vertex %d = %v, want %v", v, a, b)
	}
	return nil
}

// identity renders the fields of a job that must repeat exactly across
// repetitions of one seed: simulated seconds, device and wire bytes,
// the logical Eq. (7)/(8) parts per superstep and the mode sequence.
// Physical (codec) bytes are left out: under lz they vary run to run.
func identity(r *metrics.JobResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim=%x dev=%d net=%d", math.Float64bits(r.SimSeconds), r.IO.DevTotal(), r.NetBytes)
	for _, s := range r.Steps {
		fmt.Fprintf(&b, " %s%+v", s.Mode, s.Parts)
	}
	return b.String()
}
