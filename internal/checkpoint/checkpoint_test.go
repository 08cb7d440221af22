package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
	"hybridgraph/internal/vertexfile"
)

func testSnapshot() *Snapshot {
	s := &Snapshot{Step: 6, Worker: 2}
	for i := 0; i < 100; i++ {
		s.Records = append(s.Records, vertexfile.Record{
			ID: graph.VertexID(200 + i), OutDeg: uint32(i % 7), Val: float64(i) * 1.5,
			Bcast: [2]float64{float64(i), -float64(i)},
		})
	}
	s.Respond = [2][]uint64{{0xdeadbeef, 1}, {0, 0xffff}}
	s.Active = [2][]uint64{{7}, {9}}
	s.BlockRes = [2][]bool{{true, false, true}, {false, false, false}}
	s.Pending = [2][]comm.Msg{nil, {{Dst: 205, Val: 3.25}, {Dst: 299, Val: -1}}}
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ct := &diskio.Counter{}
	path := filepath.Join(dir, "snap.dat")
	s := testSnapshot()
	n, err := WriteSnapshot(path, ct, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("zero bytes written")
	}
	if got := ct.Bytes(diskio.SeqWrite); got != n {
		t.Fatalf("seq-write bytes = %d, want %d (checkpoints must hit the cost model)", got, n)
	}
	got, err := ReadSnapshot(path, ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 6 || got.Worker != 2 || len(got.Records) != len(s.Records) {
		t.Fatalf("header = %+v", got)
	}
	for i, r := range s.Records {
		if got.Records[i] != r {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], r)
		}
	}
	for p := 0; p < 2; p++ {
		for i, w := range s.Respond[p] {
			if got.Respond[p][i] != w {
				t.Fatalf("respond[%d][%d] = %x", p, i, got.Respond[p][i])
			}
		}
		for i, b := range s.BlockRes[p] {
			if got.BlockRes[p][i] != b {
				t.Fatalf("blockRes[%d][%d] = %v", p, i, got.BlockRes[p][i])
			}
		}
		for i, m := range s.Pending[p] {
			if got.Pending[p][i] != m {
				t.Fatalf("pending[%d][%d] = %+v", p, i, got.Pending[p][i])
			}
		}
	}
	if ct.Bytes(diskio.SeqRead) != n {
		t.Fatalf("seq-read bytes = %d, want %d", ct.Bytes(diskio.SeqRead), n)
	}
}

func TestMasterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "master.dat")
	ct := &diskio.Counter{}
	m := &Master{Step: 8, Modes: []string{"b-pull", "push", "b-pull"},
		QtSigns: []bool{true, false, true}, LastSwitch: -10, Rco: 0.4, PrevAgg: 1.25}
	if _, err := WriteMaster(path, ct, m, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMaster(path, ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 8 || got.LastSwitch != -10 || got.Rco != 0.4 || got.PrevAgg != 1.25 {
		t.Fatalf("master = %+v", got)
	}
	for i, mode := range m.Modes {
		if got.Modes[i] != mode {
			t.Fatalf("modes[%d] = %q", i, got.Modes[i])
		}
	}
	for i, s := range m.QtSigns {
		if got.QtSigns[i] != s {
			t.Fatalf("signs[%d] = %v", i, got.QtSigns[i])
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.dat")
	ct := &diskio.Counter{}
	if _, err := WriteSnapshot(path, ct, testSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path, ct); err == nil {
		t.Fatal("flipped byte not detected by CRC")
	}
	// Truncation is also rejected.
	if err := os.WriteFile(path, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path, ct); err == nil {
		t.Fatal("truncated file not rejected")
	}
}

func TestCommitProtocol(t *testing.T) {
	dir := t.TempDir()
	c := Coordinator{Dir: dir}
	if _, ok := c.LastCommitted(); ok {
		t.Fatal("empty dir reported a committed checkpoint")
	}
	ct := &diskio.Counter{}
	// Snapshots written but not committed are invisible.
	if _, err := WriteSnapshot(c.SnapshotPath(4, 0), ct, testSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LastCommitted(); ok {
		t.Fatal("uncommitted checkpoint visible")
	}
	if err := c.Commit(4, &diskio.Counter{}); err != nil {
		t.Fatal(err)
	}
	if s, ok := c.LastCommitted(); !ok || s != 4 {
		t.Fatalf("LastCommitted = %d, %v; want 4", s, ok)
	}
	if err := c.Commit(8, &diskio.Counter{}); err != nil {
		t.Fatal(err)
	}
	if s, _ := c.LastCommitted(); s != 8 {
		t.Fatalf("LastCommitted = %d, want 8", s)
	}
	c.Remove(8, 1)
	if s, ok := c.LastCommitted(); !ok || s != 4 {
		t.Fatalf("after Remove(8): %d, %v; want 4", s, ok)
	}
}

func TestRemoveReportsErrors(t *testing.T) {
	c := Coordinator{Dir: t.TempDir()}
	ct := &diskio.Counter{}
	if _, err := WriteMaster(c.MasterPath(3), ct, &Master{Step: 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(3, &diskio.Counter{}); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory squatting on a snapshot path makes os.Remove
	// fail, standing in for any filesystem-level prune failure.
	snap := c.SnapshotPath(3, 0)
	if err := os.MkdirAll(filepath.Join(snap, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(3, 1); err == nil {
		t.Fatal("Remove swallowed a deletion failure")
	}
	// The marker went first regardless, so the stale checkpoint can no
	// longer shadow a newer one.
	if _, ok := c.LastCommitted(); ok {
		t.Fatal("commit marker survived a failed Remove")
	}
	if err := os.RemoveAll(snap); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(3, 1); err != nil {
		t.Fatalf("Remove of missing files must be clean, got %v", err)
	}
}

// TestNoneSnapshotIsRawImage pins the raw on-disk layout: under codec
// none a worker snapshot is exactly "HGCK", version u32, the payload and
// the payload's CRC32 — no codec frame — with the payload fields in
// their documented little-endian order.
func TestNoneSnapshotIsRawImage(t *testing.T) {
	s := &Snapshot{Step: 4, Worker: 1,
		Records:  []vertexfile.Record{{ID: 12, OutDeg: 3, Val: 0.25, Bcast: [2]float64{1, -2}}},
		Respond:  [2][]uint64{{5}, nil},
		Active:   [2][]uint64{nil, {0x10}},
		BlockRes: [2][]bool{{true, false}, nil},
		Pending:  [2][]comm.Msg{{{Dst: 12, Val: 1.5}}, nil},
	}
	le := binary.LittleEndian
	f64 := func(b []byte, v float64) []byte { return le.AppendUint64(b, math.Float64bits(v)) }
	var p []byte
	p = le.AppendUint32(p, 1) // worker snapshot
	p = le.AppendUint32(p, 4)
	p = le.AppendUint32(p, 1)
	p = le.AppendUint32(p, 1) // one record
	p = le.AppendUint32(p, 12)
	p = le.AppendUint32(p, 3)
	p = f64(p, 0.25)
	p = f64(p, 1)
	p = f64(p, -2)
	p = le.AppendUint64(le.AppendUint32(p, 1), 5) // Respond[0]
	p = le.AppendUint32(p, 0)                     // Respond[1]
	p = le.AppendUint32(p, 0)                     // Active[0]
	p = le.AppendUint64(le.AppendUint32(p, 1), 0x10)
	p = append(le.AppendUint32(p, 2), 1, 0) // BlockRes[0]
	p = le.AppendUint32(p, 0)               // BlockRes[1]
	p = f64(le.AppendUint32(le.AppendUint32(p, 1), 12), 1.5)
	p = le.AppendUint32(p, 0) // Pending[1]
	want := append([]byte("HGCK"), 1, 0, 0, 0)
	want = append(want, p...)
	want = le.AppendUint32(want, crc32.ChecksumIEEE(p))

	path := filepath.Join(t.TempDir(), "snap.dat")
	n, err := WriteSnapshot(path, &diskio.Counter{}, s, codec.None)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || n != int64(len(want)) {
		t.Fatalf("snapshot (%d bytes reported) = %x\nwant %x", n, got, want)
	}
}
