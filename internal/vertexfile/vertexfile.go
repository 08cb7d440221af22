// Package vertexfile implements the disk-resident vertex-value store every
// engine shares. One store holds the records for one worker's contiguous
// vertex range.
//
// Record layout (32 bytes, fixed width, little endian):
//
//	id      uint32  — vertex id (redundant with position; kept for checks)
//	outdeg  uint32  — out-degree
//	val     float64 — the vertex value updated by update()/compute()
//	bcast0  float64 — broadcast value written at even supersteps
//	bcast1  float64 — broadcast value written at odd supersteps
//
// The two broadcast columns make block-centric pulling deterministic under
// BSP: update() at superstep t writes val and bcast[t mod 2], while
// pullRes() at superstep t reads bcast[(t-1) mod 2], so concurrent remote
// pulls never observe a half-updated superstep (see DESIGN.md,
// "Deviations"). The extra 8 bytes per vertex are charged to IO(Vt) like
// any other vertex byte.
package vertexfile

import (
	"encoding/binary"
	"fmt"
	"sync"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
)

// RecordSize is the fixed on-disk size of one vertex record.
const RecordSize = 32

// BcastSize is the number of bytes random-read per source vertex when
// pulling (one broadcast column), the paper's S_v.
const BcastSize = 8

// Record is the decoded form of one vertex record.
type Record struct {
	ID     graph.VertexID
	OutDeg uint32
	Val    float64
	Bcast  [2]float64
}

// Store is a disk-resident array of vertex records covering the id range
// [Lo, Lo+N).
type Store struct {
	f  *diskio.File
	lo graph.VertexID
	n  int
	// mem is non-nil for memory-resident stores (sufficient memory).
	// memMu serialises access: remote pullers read broadcast columns while
	// the owner's update scan writes records back.
	mem   []Record
	memMu sync.RWMutex
}

// Create builds a store at path for n vertices starting at id lo, writing
// the initial records sequentially. recs must have length n and be in id
// order.
func Create(path string, ct *diskio.Counter, lo graph.VertexID, recs []Record) (*Store, error) {
	f, err := diskio.Create(path, ct)
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, lo: lo, n: len(recs)}
	buf := make([]byte, len(recs)*RecordSize)
	for i, r := range recs {
		if r.ID != lo+graph.VertexID(i) {
			f.Close()
			return nil, fmt.Errorf("vertexfile: record %d has id %d, want %d", i, r.ID, lo+graph.VertexID(i))
		}
		encode(buf[i*RecordSize:], r)
	}
	if _, err := f.WriteAtClass(buf, 0, diskio.SeqWrite); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the underlying file, if any.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}

// Lo reports the first vertex id held by the store.
func (s *Store) Lo() graph.VertexID { return s.lo }

// Len reports the number of records.
func (s *Store) Len() int { return s.n }

// Contains reports whether v is stored here.
func (s *Store) Contains(v graph.VertexID) bool {
	return v >= s.lo && int(v-s.lo) < s.n
}

// ReadRange sequentially reads records for ids [lo, hi) into recs (which
// must have length hi-lo). This is the update-phase scan, charged as
// sequential reads (part of IO(Vt)).
func (s *Store) ReadRange(lo, hi graph.VertexID, recs []Record) error {
	if err := s.checkRange(lo, hi, len(recs)); err != nil {
		return err
	}
	if s.mem != nil {
		s.memMu.RLock()
		copy(recs, s.mem[lo-s.lo:hi-s.lo])
		s.memMu.RUnlock()
		return nil
	}
	buf := make([]byte, int(hi-lo)*RecordSize)
	if _, err := s.f.ReadAtClass(buf, int64(lo-s.lo)*RecordSize, diskio.SeqRead); err != nil {
		return err
	}
	for i := range recs {
		recs[i] = decode(buf[i*RecordSize:])
	}
	return nil
}

// WriteRange sequentially writes back records for ids [lo, hi), the second
// half of the update-phase scan (also IO(Vt)).
func (s *Store) WriteRange(lo, hi graph.VertexID, recs []Record) error {
	if err := s.checkRange(lo, hi, len(recs)); err != nil {
		return err
	}
	if s.mem != nil {
		s.memMu.Lock()
		copy(s.mem[lo-s.lo:hi-s.lo], recs)
		s.memMu.Unlock()
		return nil
	}
	buf := make([]byte, int(hi-lo)*RecordSize)
	for i, r := range recs {
		encode(buf[i*RecordSize:], r)
	}
	_, err := s.f.WriteAtClass(buf, int64(lo-s.lo)*RecordSize, diskio.SeqWrite)
	return err
}

// ReadBcast random-reads the broadcast column of parity for vertex v: the
// per-svertex random read that pull and b-pull pay (IO(V_rr^t)).
func (s *Store) ReadBcast(v graph.VertexID, parity int) (float64, error) {
	if !s.Contains(v) {
		return 0, fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.n)
	}
	if s.mem != nil {
		s.memMu.RLock()
		val := s.mem[v-s.lo].Bcast[parity&1]
		s.memMu.RUnlock()
		return val, nil
	}
	var b [BcastSize]byte
	if _, err := s.f.ReadAtClass(b[:], s.bcastOff(v, parity), diskio.RandRead); err != nil {
		return 0, err
	}
	return float64FromBits(b[:]), nil
}

// PageSet tracks the 4 KiB pages one scan has already pulled into memory.
// Pull-Respond's svertex reads ascend within each Eblock scan, so the
// requested Vblock's pages stay hot for the duration of the scan — the
// locality VE-BLOCK exists to create. A fresh PageSet per scan models
// that; accesses without one pay a full page each.
type PageSet map[int64]bool

// devFor reports the device bytes a read of page costs under seen — a
// whole page on first touch, nothing after — and marks it touched.
func (seen PageSet) devFor(page int64) int64 {
	if seen[page] {
		return 0
	}
	seen[page] = true
	return diskio.PageSize
}

// bcastOff is the file offset of v's broadcast column of parity.
func (s *Store) bcastOff(v graph.VertexID, parity int) int64 {
	return int64(v-s.lo)*RecordSize + 16 + int64(parity&1)*8
}

// Window is a one-page read window over a Store for one Pull-Respond
// request. Each access is charged as its own random read of one
// broadcast column — BcastSize logical bytes of RandRead, with a device
// page on the first touch of its page in the caller's PageSet — through
// the file's Accountant, in access order: the charges a per-access 8-byte
// read would make. The real I/O is one read of the whole 4 KiB page
// (clamped at the end of the file) each time an access leaves the page
// the window holds, so a request whose sources ascend — as they do across
// the Eblock scans of one request — reads each page once. A Window is not
// safe for concurrent use.
//
// The window may serve a value read earlier in the request, so nothing
// may change a broadcast column the window can hold while it is in use.
// The engines keep that: within superstep t the only writes to the store
// rewrite column t mod 2 (and copy the read column back unchanged), while
// Pull-Respond reads column (t-1) mod 2; checkpoint restores and store
// rebuilds run between supersteps, when no request is in flight.
type Window struct {
	s     *Store
	page  int64 // page held in buf, or -1
	valid int   // bytes of buf the last real read filled
	buf   []byte
	reads int // real reads made, for tests
}

// Window returns an empty read window over s.
func (s *Store) Window() *Window { return &Window{s: s, page: -1} }

// ReadBcast reads the broadcast column of parity for vertex v — the
// per-svertex random read of IO(V_rr^t) — with scan-local page
// accounting under seen.
func (w *Window) ReadBcast(v graph.VertexID, parity int, seen PageSet) (float64, error) {
	s := w.s
	if s.mem != nil {
		return s.ReadBcast(v, parity)
	}
	if !s.Contains(v) {
		return 0, fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.n)
	}
	off := s.bcastOff(v, parity)
	page := off / diskio.PageSize
	dev := seen.devFor(page)
	at := int(off - page*diskio.PageSize)
	if page != w.page || at+BcastSize > w.valid {
		if err := w.load(page); err != nil && at+BcastSize > w.valid {
			// Charge what an 8-byte read would have transferred before
			// failing.
			s.f.ChargeDev(int64(min(max(w.valid-at, 0), BcastSize)), off, diskio.RandRead, dev)
			return 0, err
		}
	}
	s.f.ChargeDev(BcastSize, off, diskio.RandRead, dev)
	return float64FromBits(w.buf[at : at+BcastSize]), nil
}

// load really reads page into the window, uncharged.
func (w *Window) load(page int64) error {
	if w.buf == nil {
		w.buf = make([]byte, diskio.PageSize)
	}
	start := page * diskio.PageSize
	end := min(start+diskio.PageSize, int64(w.s.n)*RecordSize)
	w.reads++
	n, err := w.s.f.ReadAtUncharged(w.buf[:end-start], start, diskio.RandRead)
	w.page, w.valid = page, n
	return err
}

// WriteRecord random-writes one full record (the pull baseline's
// per-active-vertex apply when few vertices are active).
func (s *Store) WriteRecord(r Record) error {
	if !s.Contains(r.ID) {
		return fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", r.ID, s.lo, int(s.lo)+s.n)
	}
	if s.mem != nil {
		s.memMu.Lock()
		s.mem[r.ID-s.lo] = r
		s.memMu.Unlock()
		return nil
	}
	var b [RecordSize]byte
	encode(b[:], r)
	_, err := s.f.WriteAtClass(b[:], int64(r.ID-s.lo)*RecordSize, diskio.RandWrite)
	return err
}

// ReadRecord random-reads one full record.
func (s *Store) ReadRecord(v graph.VertexID) (Record, error) {
	if !s.Contains(v) {
		return Record{}, fmt.Errorf("vertexfile: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.n)
	}
	if s.mem != nil {
		s.memMu.RLock()
		r := s.mem[v-s.lo]
		s.memMu.RUnlock()
		return r, nil
	}
	var b [RecordSize]byte
	if _, err := s.f.ReadAtClass(b[:], int64(v-s.lo)*RecordSize, diskio.RandRead); err != nil {
		return Record{}, err
	}
	return decode(b[:]), nil
}

func (s *Store) checkRange(lo, hi graph.VertexID, n int) error {
	if lo < s.lo || hi < lo || int(hi-s.lo) > s.n || int(hi-lo) != n {
		return fmt.Errorf("vertexfile: bad range [%d,%d) (store [%d,%d), buf %d)",
			lo, hi, s.lo, int(s.lo)+s.n, n)
	}
	return nil
}

func encode(b []byte, r Record) {
	binary.LittleEndian.PutUint32(b[0:], uint32(r.ID))
	binary.LittleEndian.PutUint32(b[4:], r.OutDeg)
	binary.LittleEndian.PutUint64(b[8:], float64Bits(r.Val))
	binary.LittleEndian.PutUint64(b[16:], float64Bits(r.Bcast[0]))
	binary.LittleEndian.PutUint64(b[24:], float64Bits(r.Bcast[1]))
}

func decode(b []byte) Record {
	return Record{
		ID:     graph.VertexID(binary.LittleEndian.Uint32(b[0:])),
		OutDeg: binary.LittleEndian.Uint32(b[4:]),
		Val:    float64FromBitsU(binary.LittleEndian.Uint64(b[8:])),
		Bcast: [2]float64{
			float64FromBitsU(binary.LittleEndian.Uint64(b[16:])),
			float64FromBitsU(binary.LittleEndian.Uint64(b[24:])),
		},
	}
}

// SetCounter retargets the store's I/O accounting (no-op for
// memory-resident stores). Used to separate loading cost from
// computation cost.
func (s *Store) SetCounter(ct *diskio.Counter) {
	if s == nil || s.f == nil {
		return
	}
	s.f.SetCounter(ct)
}
