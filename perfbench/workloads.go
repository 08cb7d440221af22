package main

import (
	"bytes"
	"fmt"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/catalog"
	"hybridgraph/internal/core"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/veblock"
)

// ingestMemBudget bounds the streaming importer's working memory, so
// setup exercises the external sort's spill and merge path.
const ingestMemBudget = 16 << 20

// workload is one benchmark input: a seeded graph, the vertex programs
// one job runs over it in turn, and the configuration they run under.
// The graph is the only thing the seed changes.
type workload struct {
	name     string
	why      string
	graph    func(seed int64) *graph.Graph
	programs func(n int) []algo.Program
	engine   core.Engine
	codec    string
	workers  int
	msgBuf   int
	steps    int
	exact    bool // values must match the oracle bit for bit (no float sums)
}

func rmat(n, m int) func(int64) *graph.Graph {
	return func(seed int64) *graph.Graph { return graph.GenRMAT(n, m, .57, .19, .19, seed) }
}

func web(n, m int) func(int64) *graph.Graph {
	return func(seed int64) *graph.Graph { return graph.GenWeb(n, m, 64, 0.8, seed) }
}

func pageRank(int) []algo.Program { return []algo.Program{algo.NewPageRank(0.85)} }

// ssspRoots is how many SSSP roots one job runs, as Graph500 averages
// over several roots: one root's depth and mode sequence vary too much
// from graph to graph to time alone. Over seeds 1-10 the job's total
// superstep count spreads (IQR / median) 0.063 with four roots and
// 0.025 with six.
const ssspRoots = 6

// ssspSources runs SSSP from the first vertex of each of ssspRoots equal
// slices of the id range.
func ssspSources(n int) []algo.Program {
	var ps []algo.Program
	for q := 0; q < ssspRoots; q++ {
		ps = append(ps, algo.NewSSSP(graph.VertexID(q*n/ssspRoots)))
	}
	return ps
}

// The four workloads split along the axes the paper's I/O trade turns
// on: dense always-active PageRank pushed through a small receive
// buffer (spill-bound) or pulled block by block (Eblock scans and
// random svertex reads), a sparse traversal where hybrid's Q^t
// switching decides, and the b-pull scan again under the lz codec so
// one workload exercises codec and the others bypass it.
var workloads = []workload{
	{
		name:     "pr-push-spill",
		why:      "PageRank on RMAT, push with a small MsgBuf: receive-buffer spill (msgstore, diskio random writes) dominates",
		graph:    rmat(12000, 192000),
		programs: pageRank, engine: core.Push, codec: "none",
		workers: 4, msgBuf: 1200, steps: 5,
	},
	{
		name:     "pr-bpull",
		why:      "same graph on b-pull: Eblock scans (veblock), random svertex reads (vertexfile) and pull-response sorts (comm); msgstore idle",
		graph:    rmat(12000, 192000),
		programs: pageRank, engine: core.BPull, codec: "none",
		workers: 4, msgBuf: 1200, steps: 5,
	},
	{
		name:     "sssp-hybrid-web",
		why:      "SSSP from six roots on a web graph under hybrid: Q^t switches mode, and most supersteps have a tiny frontier yet scan every block",
		graph:    web(20000, 160000),
		programs: ssspSources, engine: core.Hybrid, codec: "none",
		workers: 4, msgBuf: 2000, exact: true,
	},
	{
		name:     "pr-bpull-lz",
		why:      "pr-bpull under the lz codec, the only workload touching codec; its physical read bytes vary run to run, so they are reported with their spread",
		graph:    rmat(12000, 192000),
		programs: pageRank, engine: core.BPull, codec: "lz",
		workers: 4, msgBuf: 1200, steps: 3,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// maxSteps is the superstep cap the job and the oracle share. A
// traversal (steps 0) runs until no vertex responds; 200 only guards
// against a run that never settles.
func (w workload) maxSteps() int {
	if w.steps > 0 {
		return w.steps
	}
	return 200
}

// blocksPer applies Eq. (5), the Vblock rule for combinable programs,
// to the largest worker partition.
func (w workload) blocksPer(n int) int {
	return veblock.BlocksCombinable((n+w.workers-1)/w.workers, w.workers, w.msgBuf)
}

func (w workload) streamOptions(n int) catalog.StreamOptions {
	return catalog.StreamOptions{Workers: w.workers, BlocksPer: w.blocksPer(n),
		Codec: w.codec, MemBudget: ingestMemBudget}
}

func (w workload) config(e *catalog.Entry) core.Config {
	return core.Config{Workers: w.workers, MsgBuf: w.msgBuf, MaxSteps: w.maxSteps(),
		Parallelism: 1, Codec: w.codec, Stores: e}
}

// edgeList renders g in the text edge-list format the importer parses,
// weights included so SSSP distances survive the round trip.
func edgeList(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
