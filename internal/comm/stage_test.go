package comm

import (
	"reflect"
	"testing"

	"hybridgraph/internal/graph"
)

// stageLoad stages n messages spread over workers destinations, keyed by
// round so two rounds stage different sequences.
func stageLoad(s *Stage, round, n, workers int) {
	for i := 0; i < n; i++ {
		s.Add((i*7+round)%workers, Msg{Dst: graph.VertexID((i*13 + round) % 97), Val: float64(i + round)})
	}
}

// TestStageReuseAllocsNothing: once a stage has grown to its load, a
// further Add…MergeInto cycle allocates nothing. The outbox is kept from
// flushing and its pending buffers are recycled between runs — flushed
// buffers belong to their packets — so the count is the stage's alone.
func TestStageReuseAllocsNothing(t *testing.T) {
	const workers, n = 3, 5000
	o := NewOutbox(NewLocal(workers), workers, 0, 1, 1<<40)
	var s Stage
	cycle := func() {
		stageLoad(&s, 1, n, workers)
		if err := s.MergeInto(o); err != nil {
			t.Fatal(err)
		}
		for to := range o.pending {
			o.pending[to] = o.pending[to][:0]
		}
	}
	cycle() // warm-up: the stage and the outbox buffers grow here
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("reused stage cycle allocates %g times per run, want 0", allocs)
	}
	if s.Len() != 0 {
		t.Fatalf("MergeInto left %d staged messages", s.Len())
	}
}

// TestReusedStageReplaysLikeFresh: a stage that has already staged and
// merged (or been reset with messages pending) replays a new Add sequence
// into an outbox exactly as a fresh stage does — same packets, same
// boundaries, same combine batches, same wire bytes.
func TestReusedStageReplaysLikeFresh(t *testing.T) {
	const workers = 3
	run := func(s *Stage) ([]*Packet, int64, int64) {
		fab := NewLocal(workers)
		r := &recorder{}
		for w := 0; w < workers; w++ {
			fab.Register(w, r)
		}
		o := NewOutbox(fab, workers, 0, 4, 40*MsgWireSize)
		o.SetCombine(func(a, b float64) float64 { return a + b })
		stageLoad(s, 2, 700, workers)
		if err := s.MergeInto(o); err != nil {
			t.Fatal(err)
		}
		if err := o.Flush(); err != nil {
			t.Fatal(err)
		}
		return r.packets, fab.TotalBytes(), o.SavedBytes()
	}
	wantPkts, wantWire, wantSaved := run(&Stage{})

	var reused Stage
	stageLoad(&reused, 0, 1200, workers)
	if err := reused.MergeInto(NewOutbox(NewLocal(workers), workers, 0, 3, 1<<40)); err != nil {
		t.Fatal(err)
	}
	stageLoad(&reused, 5, 30, workers) // left over from an abandoned scan
	reused.Reset()
	gotPkts, gotWire, gotSaved := run(&reused)

	if gotWire != wantWire || gotSaved != wantSaved {
		t.Fatalf("reused stage: wire %d saved %d, fresh: wire %d saved %d", gotWire, gotSaved, wantWire, wantSaved)
	}
	if !reflect.DeepEqual(gotPkts, wantPkts) {
		t.Fatalf("reused stage sent %d packets that differ from the fresh stage's %d", len(gotPkts), len(wantPkts))
	}
}
