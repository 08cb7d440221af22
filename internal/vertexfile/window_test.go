package vertexfile

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
)

// twinStore builds a disk store of n records starting at lo on a counter
// with a physical twin attached.
func twinStore(t testing.TB, dir string, lo graph.VertexID, n int) (*Store, *diskio.Counter, *diskio.Counter) {
	t.Helper()
	ct, phys := &diskio.Counter{}, &diskio.Counter{}
	ct.SetPhys(phys)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{ID: lo + graph.VertexID(i), OutDeg: uint32(i),
			Val: float64(i) / 3, Bcast: [2]float64{float64(i) + 0.25, -float64(i) - 0.75}}
	}
	s, err := Create(filepath.Join(dir, "v.dat"), ct, lo, recs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, ct, phys
}

// readBcastPerRead is the per-access path the window replaces, kept as
// its reference: one real 8-byte read per access, charged as it happens.
func readBcastPerRead(s *Store, v graph.VertexID, parity int, seen PageSet) (float64, error) {
	off := s.bcastOff(v, parity)
	dev := seen.devFor(off / diskio.PageSize)
	var b [BcastSize]byte
	n, err := s.f.ReadAtUncharged(b[:], off, diskio.RandRead)
	s.f.ChargeDev(int64(n), off, diskio.RandRead, dev)
	if err != nil {
		return 0, err
	}
	return float64FromBits(b[:]), nil
}

type access struct {
	v      graph.VertexID
	parity int
}

// pageTransitions counts the accesses whose page differs from the
// previous access's (the first access counts as one).
func pageTransitions(s *Store, seq []access) int {
	n, last := 0, int64(-1)
	for _, a := range seq {
		if p := s.bcastOff(a.v, a.parity) / diskio.PageSize; p != last {
			n, last = n+1, p
		}
	}
	return n
}

// TestWindowMatchesPerRead runs the windowed path and the per-read path
// over the same access sequences on twin stores: every value, every error
// and every Counter snapshot — logical, device, op counts and the
// physical twin — must agree, and the window must really read at most
// once per page transition. A trailing random write and read check that
// both paths leave the file's Accountant in the same position state.
func TestWindowMatchesPerRead(t *testing.T) {
	const lo, n = 1000, 300 // 9,600 bytes: the third page is partial
	asc := func(from, to int, parity int) []access {
		var seq []access
		for i := from; i < to; i++ {
			seq = append(seq, access{lo + graph.VertexID(i), parity})
		}
		return seq
	}
	desc := asc(0, n, 0)
	for i, j := 0, len(desc)-1; i < j; i, j = i+1, j-1 {
		desc[i], desc[j] = desc[j], desc[i]
	}
	rng := rand.New(rand.NewSource(5))
	var scattered []access
	for i := 0; i < 400; i++ {
		scattered = append(scattered, access{lo + graph.VertexID(rng.Intn(n)), rng.Intn(2)})
	}
	// Records are 32 bytes, so 128 to a page: 127|128 and 255|256 cross.
	crossing := []access{{lo + 126, 1}, {lo + 127, 1}, {lo + 128, 1}, {lo + 129, 0},
		{lo + 255, 0}, {lo + 256, 1}, {lo + 127, 0}, {lo + 128, 0}}
	seqs := map[string][]access{
		"ascending":     asc(0, n, 1),
		"ascending-gap": append(asc(3, 90, 0), asc(200, 260, 0)...),
		"crossing":      crossing,
		"descending":    desc,
		"scattered":     scattered,
		"last-partial":  append(asc(256, n, 1), asc(290, n, 0)...),
	}
	for name, seq := range seqs {
		t.Run(name, func(t *testing.T) {
			ref, rct, rphys := twinStore(t, t.TempDir(), lo, n)
			win, wct, wphys := twinStore(t, t.TempDir(), lo, n)
			rseen, wseen := PageSet{}, PageSet{}
			w := win.Window()
			for i, a := range seq {
				want, err := readBcastPerRead(ref, a.v, a.parity, rseen)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.ReadBcast(a.v, a.parity, wseen)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("access %d (v=%d parity=%d): window %g, per-read %g", i, a.v, a.parity, got, want)
				}
				if rct.Snapshot() != wct.Snapshot() || rphys.Snapshot() != wphys.Snapshot() {
					t.Fatalf("access %d: charges differ:\n per-read %+v / phys %+v\n window   %+v / phys %+v",
						i, rct.Snapshot(), rphys.Snapshot(), wct.Snapshot(), wphys.Snapshot())
				}
			}
			if tr := pageTransitions(win, seq); w.reads > tr {
				t.Fatalf("window made %d real reads for %d page transitions", w.reads, tr)
			}
			rec := Record{ID: lo + 5, OutDeg: 1, Val: 2}
			for _, s := range []*Store{ref, win} {
				if err := s.WriteRecord(rec); err != nil {
					t.Fatal(err)
				}
				if _, err := s.ReadRecord(lo + 200); err != nil {
					t.Fatal(err)
				}
			}
			if rct.Snapshot() != wct.Snapshot() || rphys.Snapshot() != wphys.Snapshot() {
				t.Fatalf("charges after a random write+read differ: per-read %+v, window %+v",
					rct.Snapshot(), wct.Snapshot())
			}
		})
	}
}

// TestWindowShortFileMatchesPerRead: on a file cut short inside its last
// page, a read the 8-byte path could still satisfy succeeds from the
// window too, and a read it could only partly satisfy fails the same way
// and charges the same partial transfer.
func TestWindowShortFileMatchesPerRead(t *testing.T) {
	const lo, n = 0, 200
	ref, rct, rphys := twinStore(t, t.TempDir(), lo, n)
	win, wct, wphys := twinStore(t, t.TempDir(), lo, n)
	for _, s := range []*Store{ref, win} {
		// Cut the last record's bcast1 column in half.
		if err := os.Truncate(s.f.Name(), n*RecordSize-4); err != nil {
			t.Fatal(err)
		}
	}
	rseen, wseen := PageSet{}, PageSet{}
	w := win.Window()
	for _, a := range []access{{150, 1}, {199, 0}, {198, 1}, {199, 1}, {199, 0}} {
		want, rerr := readBcastPerRead(ref, a.v, a.parity, rseen)
		got, werr := w.ReadBcast(a.v, a.parity, wseen)
		if (rerr == nil) != (werr == nil) || (rerr != nil && !errors.Is(werr, io.EOF)) {
			t.Fatalf("v=%d parity=%d: per-read error %v, window error %v", a.v, a.parity, rerr, werr)
		}
		if rerr == nil && got != want {
			t.Fatalf("v=%d parity=%d: window %g, per-read %g", a.v, a.parity, got, want)
		}
		if rct.Snapshot() != wct.Snapshot() || rphys.Snapshot() != wphys.Snapshot() {
			t.Fatalf("v=%d parity=%d: charges differ: per-read %+v, window %+v",
				a.v, a.parity, rct.Snapshot(), wct.Snapshot())
		}
	}
}

// TestWindowMemoryStore: a memory-resident store serves the window
// without I/O.
func TestWindowMemoryStore(t *testing.T) {
	s := CreateMem(10, []Record{{ID: 10, Bcast: [2]float64{1, 2}}, {ID: 11, Bcast: [2]float64{3, 4}}})
	w := s.Window()
	if v, err := w.ReadBcast(11, 1, PageSet{}); err != nil || v != 4 {
		t.Fatalf("ReadBcast = %g, %v; want 4", v, err)
	}
	if _, err := w.ReadBcast(12, 1, PageSet{}); err == nil {
		t.Fatal("ReadBcast outside the store should fail")
	}
	if w.reads != 0 {
		t.Fatalf("memory store made %d real reads", w.reads)
	}
}

// BenchmarkReadBcastScan times Pull-Respond's svertex read over one
// ascending 4,096-vertex scan (32 pages): the per-read path does one
// 8-byte pread per access, the window one 4 KiB pread per page.
func BenchmarkReadBcastScan(b *testing.B) {
	const n = 4096
	s, _, _ := twinStore(b, b.TempDir(), 0, n)
	b.Run("per-read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen := PageSet{}
			for v := graph.VertexID(0); v < n; v++ {
				if _, err := readBcastPerRead(s, v, 1, seen); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("window", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen := PageSet{}
			w := s.Window()
			for v := graph.VertexID(0); v < n; v++ {
				if _, err := w.ReadBcast(v, 1, seen); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
