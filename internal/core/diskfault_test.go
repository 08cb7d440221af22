package core

import (
	"errors"
	"testing"

	"hybridgraph/internal/algo"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/faultplan"
	"hybridgraph/internal/graph"
)

// TestDiskFaultSweepByteIdenticalOrTyped is the storage-fault contract in
// one sweep: under seeded ENOSPC, torn-write and failed-fsync injection a
// job either completes with values byte-identical to the fault-free run,
// or fails with an error the caller can type-match against
// diskio.ErrDiskFault. Silent divergence — wrong values with a nil error —
// is the one outcome the fault layer must make impossible.
func TestDiskFaultSweepByteIdenticalOrTyped(t *testing.T) {
	g := graph.GenRMAT(300, 2200, 0.57, 0.19, 0.19, 11)
	prog := func() algo.Program { return algo.NewPageRank(0.85) }

	clean, err := Run(g, prog(), Config{Workers: 3, MsgBuf: 80, MaxSteps: 5}, Push)
	if err != nil {
		t.Fatal(err)
	}

	completed, failed, faultsSeen := 0, 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		cfg := Config{Workers: 3, MsgBuf: 80, MaxSteps: 5,
			Recovery: "checkpoint", CheckpointEvery: 2,
			FaultPlan: faultplan.NewPlan().WithDisk(diskio.FaultConfig{
				Seed:        seed,
				WriteENOSPC: 0.0001,
				TornWrite:   0.0001,
				SyncFail:    0.10,
			})}
		res, err := Run(g, prog(), cfg, Push)
		if err != nil {
			if !errors.Is(err, diskio.ErrDiskFault) {
				t.Fatalf("seed %d: error is not a typed disk fault: %v", seed, err)
			}
			failed++
			continue
		}
		completed++
		faultsSeen += res.DiskFaults
		for v := range clean.Values {
			if res.Values[v] != clean.Values[v] {
				t.Fatalf("seed %d: vertex %d = %g, fault-free run has %g (silent divergence)",
					seed, v, res.Values[v], clean.Values[v])
			}
		}
	}
	if completed == 0 {
		t.Fatal("every seed failed: the sweep never exercised the byte-identity half")
	}
	if failed == 0 && faultsSeen == 0 {
		t.Fatal("no seed injected a fault: the sweep has no teeth")
	}
}

// TestDiskFaultPowerCutFailsTyped cuts power halfway through the job's
// mutating disk ops: the job must fail — nothing written after the cut
// ever reaches disk — and the error must match both the fault sentinel
// and IsPowerCut.
func TestDiskFaultPowerCutFailsTyped(t *testing.T) {
	g := graph.GenRMAT(300, 2200, 0.57, 0.19, 0.19, 11)
	cfg := Config{Workers: 3, MsgBuf: 80, MaxSteps: 5}
	cut := midJobOp(t, g, cfg, Push)
	cfg.FaultPlan = faultplan.NewPlan().WithDisk(diskio.FaultConfig{
		Seed: 7, PowerCutAfter: cut,
	})
	_, err := Run(g, algo.NewPageRank(0.85), cfg, Push)
	if err == nil {
		t.Fatalf("job survived a simulated power cut at mutating op %d", cut)
	}
	if !errors.Is(err, diskio.ErrDiskFault) {
		t.Fatalf("power-cut error does not match ErrDiskFault: %v", err)
	}
	if !diskio.IsPowerCut(err) {
		t.Fatalf("IsPowerCut false for: %v", err)
	}
}

// midJobOp runs PageRank fault-free under a counting injector installed
// over a fresh TMPDIR, where the job keeps its files, and returns half
// the mutating disk ops it made: a power cut there lands mid-job
// however the stores batch their writes.
func midJobOp(t *testing.T, g *graph.Graph, cfg Config, e Engine) int64 {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	fs := diskio.NewFaultFS(diskio.FaultConfig{})
	diskio.Install(dir, fs)
	defer diskio.Uninstall(dir)
	runOne(t, g, algo.NewPageRank(0.85), cfg, e)
	ops := fs.Stats().Ops
	if ops < 2 {
		t.Fatalf("fault-free job made %d mutating disk ops; nothing to cut", ops)
	}
	return ops / 2
}

// TestCheckpointFaultAbandonsAttempt forces every fsync to fail: each
// checkpoint attempt must be abandoned without a commit marker and without
// failing the job, the failures must be counted, and the final values must
// still match the fault-free run — checkpointing is an overhead, never a
// correctness hazard.
func TestCheckpointFaultAbandonsAttempt(t *testing.T) {
	g := graph.GenRMAT(300, 2200, 0.57, 0.19, 0.19, 11)
	prog := func() algo.Program { return algo.NewPageRank(0.85) }

	clean, err := Run(g, prog(), Config{Workers: 3, MsgBuf: 80, MaxSteps: 5}, Push)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 3, MsgBuf: 80, MaxSteps: 5,
		Recovery: "checkpoint", CheckpointEvery: 2,
		FaultPlan: faultplan.NewPlan().WithDisk(diskio.FaultConfig{
			Seed: 3, SyncFail: 1.0,
		})}
	res, err := Run(g, prog(), cfg, Push)
	if err != nil {
		t.Fatalf("all-fsyncs-fail must not fail the job: %v", err)
	}
	if res.CheckpointWriteFailures == 0 {
		t.Fatal("no checkpoint write failures counted under SyncFail=1.0")
	}
	if res.Checkpoints != 0 {
		t.Fatalf("%d checkpoints committed though every fsync failed", res.Checkpoints)
	}
	if res.DiskFaults == 0 {
		t.Fatal("res.DiskFaults = 0, want the injected sync failures counted")
	}
	for v := range clean.Values {
		if res.Values[v] != clean.Values[v] {
			t.Fatalf("vertex %d = %g, fault-free run has %g",
				v, res.Values[v], clean.Values[v])
		}
	}
}
