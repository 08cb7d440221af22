package msglog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hybridgraph/internal/comm"
	"hybridgraph/internal/diskio"
)

func openTest(t *testing.T) (*Log, *diskio.Counter) {
	t.Helper()
	ct := &diskio.Counter{}
	l, err := Open(filepath.Join(t.TempDir(), "msglog"), ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, ct
}

func msgsEqual(a, b []comm.Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPushRoundTrip(t *testing.T) {
	l, ct := openTest(t)
	p1 := []comm.Msg{{Dst: 1, Val: 0.5}, {Dst: 9, Val: -3}}
	p2 := []comm.Msg{{Dst: 4, Val: 7}}
	other := []comm.Msg{{Dst: 2, Val: 1}}
	if err := l.AppendPush(3, 1, p1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPush(3, 2, other); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPush(3, 1, p2); err != nil {
		t.Fatal(err)
	}
	rct := &diskio.Counter{}
	got, err := l.PushTo(3, 1, rct)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]comm.Msg(nil), p1...), p2...)
	if !msgsEqual(got, want) {
		t.Fatalf("PushTo = %v, want %v", got, want)
	}
	if rct.Snapshot().Total() == 0 {
		t.Fatal("read bytes were not charged to the read counter")
	}
	if ct.Snapshot().Bytes[diskio.SeqWrite] == 0 {
		t.Fatal("append bytes were not charged as sequential writes")
	}
	// Other destination, other step: isolated.
	if got, err := l.PushTo(3, 0, rct); err != nil || len(got) != 0 {
		t.Fatalf("PushTo(3,0) = %v, %v, want empty", got, err)
	}
	if got, err := l.PushTo(4, 1, rct); err != nil || len(got) != 0 {
		t.Fatalf("PushTo(4,1) = %v, %v, want empty (missing segment)", got, err)
	}
}

func TestPullRespFirstRecordWins(t *testing.T) {
	l, _ := openTest(t)
	resp := []comm.Msg{{Dst: 11, Val: 2.5}, {Dst: 12, Val: 4}}
	// A duplicated RPC delivery logs the identical response twice; the
	// reader must take the first copy only.
	if err := l.AppendPullResp(5, 7, resp); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPullResp(5, 7, resp); err != nil {
		t.Fatal(err)
	}
	rct := &diskio.Counter{}
	got, ok, err := l.PullResp(5, 7, rct)
	if err != nil || !ok {
		t.Fatalf("PullResp = ok %v, err %v", ok, err)
	}
	if !msgsEqual(got, resp) {
		t.Fatalf("PullResp = %v, want %v", got, resp)
	}
	if _, ok, err := l.PullResp(5, 8, rct); err != nil || ok {
		t.Fatalf("PullResp(5,8) ok=%v err=%v, want absent", ok, err)
	}
}

func TestSegmentReopenAfterStepChange(t *testing.T) {
	l, _ := openTest(t)
	if err := l.AppendPush(2, 0, []comm.Msg{{Dst: 1, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendPush(3, 0, []comm.Msg{{Dst: 2, Val: 2}}); err != nil {
		t.Fatal(err)
	}
	// A rejoining worker appends to an earlier step's segment again.
	if err := l.AppendPush(2, 0, []comm.Msg{{Dst: 3, Val: 3}}); err != nil {
		t.Fatal(err)
	}
	rct := &diskio.Counter{}
	got, err := l.PushTo(2, 0, rct)
	if err != nil {
		t.Fatal(err)
	}
	want := []comm.Msg{{Dst: 1, Val: 1}, {Dst: 3, Val: 3}}
	if !msgsEqual(got, want) {
		t.Fatalf("PushTo after reopen = %v, want %v", got, want)
	}
}

func TestCorruptionDetected(t *testing.T) {
	l, _ := openTest(t)
	if err := l.AppendPush(2, 1, []comm.Msg{{Dst: 5, Val: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := l.SegmentPath(2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[recHeaderSize] ^= 0xff // flip a payload byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PushTo(2, 1, &diskio.Counter{}); err == nil {
		t.Fatal("corrupted record passed CRC verification")
	}
}

func TestPrune(t *testing.T) {
	l, _ := openTest(t)
	for step := 1; step <= 6; step++ {
		if err := l.AppendPush(step, 0, []comm.Msg{{Dst: 1, Val: float64(step)}}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l.Prune(4)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 {
		t.Fatalf("Prune removed %d segments, want 4", removed)
	}
	for step := 1; step <= 4; step++ {
		if _, err := os.Stat(l.SegmentPath(step)); !os.IsNotExist(err) {
			t.Fatalf("segment %d survived pruning", step)
		}
	}
	rct := &diskio.Counter{}
	for step := 5; step <= 6; step++ {
		got, err := l.PushTo(step, 0, rct)
		if err != nil || len(got) != 1 {
			t.Fatalf("segment %d unreadable after prune: %v, %v", step, got, err)
		}
	}
	// The log keeps appending after a prune closed its open segment.
	if err := l.AppendPush(7, 0, []comm.Msg{{Dst: 2, Val: 7}}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, _ := openTest(t)
	var wg sync.WaitGroup
	const per = 50
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.AppendPullResp(3, g, []comm.Msg{{Dst: 1, Val: float64(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Records() != 4*per {
		t.Fatalf("Records = %d, want %d", l.Records(), 4*per)
	}
	// Every record must still parse (no interleaved torn writes).
	rct := &diskio.Counter{}
	for g := 0; g < 4; g++ {
		if _, ok, err := l.PullResp(3, g, rct); err != nil || !ok {
			t.Fatalf("block %d: ok=%v err=%v", g, ok, err)
		}
	}
}

// TestNoneSegmentIsRecordStream pins the raw on-disk layout: under codec
// none a segment is exactly its records in append order —
// kind(1) step(4) key(4) count(4) count×[dst(4) val(8)] crc(4), all
// little-endian — with no frame around any of them.
func TestNoneSegmentIsRecordStream(t *testing.T) {
	l, _ := openTest(t)
	type rec struct {
		kind Kind
		key  uint32
		msgs []comm.Msg
	}
	recs := []rec{
		{KindPush, 2, []comm.Msg{{Dst: 1, Val: 0.5}, {Dst: 9, Val: -3}}},
		{KindPullResp, 7, []comm.Msg{{Dst: 4, Val: 7}}},
		{KindPush, 0, nil},
	}
	var want []byte
	for _, r := range recs {
		var err error
		if r.kind == KindPush {
			err = l.AppendPush(3, int(r.key), r.msgs)
		} else {
			err = l.AppendPullResp(3, int(r.key), r.msgs)
		}
		if err != nil {
			t.Fatal(err)
		}
		start := len(want)
		want = append(want, byte(r.kind))
		want = binary.LittleEndian.AppendUint32(want, 3)
		want = binary.LittleEndian.AppendUint32(want, r.key)
		want = binary.LittleEndian.AppendUint32(want, uint32(len(r.msgs)))
		for _, m := range r.msgs {
			want = binary.LittleEndian.AppendUint32(want, uint32(m.Dst))
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(m.Val))
		}
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want[start:]))
	}
	got, err := os.ReadFile(l.SegmentPath(3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment = %x\nwant      %x", got, want)
	}
}
