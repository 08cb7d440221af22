package core

import (
	"context"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/metrics"
)

// BenchmarkRespondPull times one worker's Pull-Respond for every block of
// a disk-resident b-pull PageRank job, right after the Init superstep
// (every vertex responding): Eblock scans, the svertex reads served
// through the one-page window, message generation, sort and combine.
func BenchmarkRespondPull(b *testing.B) {
	g := graph.GenRMAT(20000, 160000, 0.57, 0.19, 0.19, 41)
	cfg := Config{Workers: 2, MaxSteps: 2, Parallelism: 1}.withDefaults()
	if err := cfg.validate(g.NumVertices); err != nil {
		b.Fatal(err)
	}
	j := &job{cfg: cfg, runCtx: context.Background(), g: g, prog: algo.NewPageRank(0.85), engine: BPull}
	j.cdc, _ = codec.Lookup(cfg.Codec)
	j.jm = newJobMetrics(nil)
	if err := j.setupDir(); err != nil {
		b.Fatal(err)
	}
	defer j.close(false)
	if err := j.setup(BPull, &metrics.JobResult{}); err != nil {
		b.Fatal(err)
	}
	if _, err := j.superstep(1, BPull, BPull); err != nil {
		b.Fatal(err)
	}
	w := j.workers[0]
	blocks := j.layout.NumBlocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < blocks; blk++ {
			if _, _, err := w.RespondPull(blk, 2); err != nil {
				b.Fatal(err)
			}
		}
	}
}
