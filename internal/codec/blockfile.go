package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"hybridgraph/internal/diskio"
	"hybridgraph/internal/lru"
)

// ChunkSize is the logical granularity of a block file: a framed image
// is split into ChunkSize runs, each stored as one frame, so a random
// logical access decompresses one chunk, not the whole store; a raw
// image is written in ChunkSize runs.
const ChunkSize = 64 << 10

// SpillChunk is the staging threshold of a spill file: records
// accumulate in memory and reach the disk SpillChunk logical bytes at a
// time — one frame per run under a real codec (12-byte spill records
// framed individually would expand, not compress), one plain write per
// run under none (instead of one syscall per record).
const SpillChunk = 16 << 10

const (
	footerMagic = "HGCI"
	footerSize  = 4 + 8 + 8 // magic + index offset + logical size
)

// chunkCacheCap bounds the decoded-chunk LRU each BlockFile holds
// (chunkCacheCap × ChunkSize bytes at most). One chunk is not enough:
// b-pull's Pull-Respond interleaves fragment scans with metadata reads
// in a different file region, and a single-slot cache re-decodes a full
// frame on every alternation — physical reads would dwarf the logical
// bytes the access actually asked for.
const chunkCacheCap = 8

// BlockFile is the read side of a write-once store (adjacency runs,
// VE-BLOCK images). Under codec none the file is the logical byte
// stream and each read goes straight to the byte range asked for. Under
// a real codec it is a run of chunk frames, an index frame (frame
// lengths of every chunk, codec "none") and a fixed footer locating the
// index; a read decompresses only the chunks it touches, through a
// small decoded-chunk LRU. Logical charges go through an Accountant
// exactly as a raw File would make them; framed I/O is charged, in the
// caller's access class, to the counter's physical twin.
//
// Safe for concurrent readers. Raw reads run in parallel; framed reads
// serialise chunk decode and the chunk cache on a mutex (parallel shards
// scanning disjoint ranges still get exact logical accounting — charges
// are per-access, not positional).
type BlockFile struct {
	f    *diskio.File
	acct *diskio.Accountant
	raw  bool
	path string

	mu     sync.Mutex
	size   int64 // logical bytes
	chunks []chunkRef
	cache  *lru.Cache // chunk index -> decoded chunk
}

type chunkRef struct {
	physOff int64
	physLen int64
}

// WriteBlockFile writes buf as a block file at path under codec c. The
// logical charge is one sequential write of len(buf) bytes at offset 0
// on a fresh file — and nothing at all for an empty image (the file is
// created and left empty). It is the buffered convenience over
// BlockWriter; the two produce byte-identical files.
func WriteBlockFile(path string, ct *diskio.Counter, c Codec, buf []byte) error {
	w, err := NewBlockWriter(path, ct, c)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// OpenBlockFile opens a block file written under codec c for reading.
// Opening charges nothing logically (the raw store's open performs no
// data I/O); a framed file's footer and index reads are physical-only.
func OpenBlockFile(path string, ct *diskio.Counter, c Codec) (*BlockFile, error) {
	acct, fileCt := charges(ct, c)
	f, err := diskio.OpenRead(path, fileCt)
	if err != nil {
		return nil, err
	}
	b := &BlockFile{f: f, acct: acct, raw: IsNone(c), path: path}
	if b.raw {
		b.size, err = f.Size()
	} else {
		b.cache = lru.New(chunkCacheCap)
		err = b.loadIndex()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("codec: open %s: %w", path, err)
	}
	return b, nil
}

func (b *BlockFile) loadIndex() error {
	fsize, err := b.f.Size()
	if err != nil {
		return err
	}
	if fsize == 0 {
		return nil // empty image
	}
	if fsize < footerSize {
		return fmt.Errorf("%w: %d-byte file below footer size", ErrCorrupt, fsize)
	}
	fb := make([]byte, footerSize)
	if _, err := b.f.ReadAtClass(fb, fsize-footerSize, diskio.RandRead); err != nil {
		return err
	}
	if string(fb[:4]) != footerMagic {
		return fmt.Errorf("%w: bad footer magic %q", ErrCorrupt, fb[:4])
	}
	indexOff := int64(binary.LittleEndian.Uint64(fb[4:]))
	b.size = int64(binary.LittleEndian.Uint64(fb[12:]))
	if indexOff < 0 || indexOff > fsize-footerSize || b.size < 0 {
		return fmt.Errorf("%w: implausible footer (index %d size %d)", ErrCorrupt, indexOff, b.size)
	}
	rawIdx := make([]byte, fsize-footerSize-indexOff)
	if _, err := b.f.ReadAtClass(rawIdx, indexOff, diskio.RandRead); err != nil {
		return err
	}
	index, _, err := DecodeFrame(nil, rawIdx)
	if err != nil {
		return err
	}
	if len(index) < 4 {
		return fmt.Errorf("%w: truncated chunk index", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(index))
	if len(index) != 4+4*n {
		return fmt.Errorf("%w: chunk index declares %d entries in %d bytes", ErrCorrupt, n, len(index))
	}
	want := (b.size + ChunkSize - 1) / ChunkSize
	if int64(n) != want {
		return fmt.Errorf("%w: %d chunks for %d logical bytes", ErrCorrupt, n, b.size)
	}
	b.chunks = make([]chunkRef, n)
	var off int64
	for i := 0; i < n; i++ {
		l := int64(binary.LittleEndian.Uint32(index[4+4*i:]))
		b.chunks[i] = chunkRef{physOff: off, physLen: l}
		off += l
	}
	if off != indexOff {
		return fmt.Errorf("%w: chunk lengths sum to %d, index at %d", ErrCorrupt, off, indexOff)
	}
	return nil
}

// Size reports the logical image size.
func (b *BlockFile) Size() (int64, error) { return b.size, nil }

// SetCounter retargets logical accounting to ct and framed I/O to ct's
// twin, mirroring File.SetCounter on a raw file.
func (b *BlockFile) SetCounter(ct *diskio.Counter) {
	b.acct.SetCounter(ct)
	if !b.raw {
		b.f.SetCounter(ct.Phys())
	}
}

// Name reports the file path.
func (b *BlockFile) Name() string { return b.path }

// Close releases the file.
func (b *BlockFile) Close() error { return b.f.Close() }

// ReadAtClass reads logical bytes at off, charging exactly what a raw
// File.ReadAtClass would charge.
func (b *BlockFile) ReadAtClass(p []byte, off int64, c diskio.Class) (int, error) {
	if b.raw {
		n, err := b.f.ReadAtClass(p, off, c)
		b.acct.ReadAtClass(int64(n), off, c)
		return n, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("codec: %s: negative read offset %d", b.path, off)
	}
	n := int64(len(p))
	if n == 0 || off >= b.size {
		// Mirror the raw File: a zero-byte or past-end read still records
		// one zero-byte operation of class c.
		b.acct.ReadAtClass(0, off, c)
		if n == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	short := false
	if off+n > b.size {
		n = b.size - off
		short = true
	}
	var copied int64
	for copied < n {
		pos := off + copied
		ci := int(pos / ChunkSize)
		chunk, err := b.chunkLocked(ci, c)
		if err != nil {
			return int(copied), fmt.Errorf("codec: %s: %w", b.path, err)
		}
		in := pos - int64(ci)*ChunkSize
		copied += int64(copy(p[copied:n], chunk[in:]))
	}
	b.acct.ReadAtClass(n, off, c)
	if short {
		return int(n), io.EOF
	}
	return int(n), nil
}

// chunkLocked returns the decoded chunk ci, via the chunk LRU.
func (b *BlockFile) chunkLocked(ci int, c diskio.Class) ([]byte, error) {
	if v, ok := b.cache.Get(uint32(ci)); ok {
		return v.([]byte), nil
	}
	ref := b.chunks[ci]
	raw := make([]byte, ref.physLen)
	if _, err := b.f.ReadAtClass(raw, ref.physOff, c); err != nil {
		return nil, err
	}
	chunk, _, err := DecodeFrame(nil, raw)
	if err != nil {
		return nil, err
	}
	wantLen := ChunkSize
	if ci == len(b.chunks)-1 {
		wantLen = int(b.size - int64(ci)*ChunkSize)
	}
	if len(chunk) != wantLen {
		return nil, fmt.Errorf("%w: chunk %d decoded to %d bytes, want %d", ErrCorrupt, ci, len(chunk), wantLen)
	}
	b.cache.Put(uint32(ci), chunk)
	return chunk, nil
}

// SpillFile is a message-spill file. Every record is charged as the
// paper's random write at its logical offset (arrival order, destination
// locality unknown), but the real I/O is staged: records accumulate in
// memory and reach the disk SpillChunk logical bytes at a time — as
// they are under codec none, as one frame otherwise. ReadAll charges
// the one sequential read of the whole spill that a drain performs.
type SpillFile struct {
	path string
	c    Codec
	ct   *diskio.Counter

	acct       *diskio.Accountant
	f          *diskio.File
	staging    []byte
	physOff    int64
	logicalLen int64
}

// NewSpillFile prepares a spill at path; the file is created lazily on
// the first Append.
func NewSpillFile(path string, ct *diskio.Counter, c Codec) *SpillFile {
	return &SpillFile{path: path, c: c, ct: ct}
}

// Len reports the logical bytes appended since the last Close.
func (s *SpillFile) Len() int64 { return s.logicalLen }

// Append spills one record, charging the random write a record-at-a-time
// spill would perform at the same logical offset.
func (s *SpillFile) Append(rec []byte) error {
	if s.f == nil {
		acct, fileCt := charges(s.ct, s.c)
		f, err := diskio.Create(s.path, fileCt)
		if err != nil {
			return err
		}
		s.f, s.acct = f, acct
	}
	s.acct.WriteAtClass(int64(len(rec)), s.logicalLen, diskio.RandWrite)
	s.staging = append(s.staging, rec...)
	s.logicalLen += int64(len(rec))
	if len(s.staging) >= SpillChunk {
		return s.flush()
	}
	return nil
}

// flush writes the staged records: verbatim under none, as one frame
// otherwise.
func (s *SpillFile) flush() error {
	out := stored(nil, s.c, s.staging)
	if _, err := s.f.WriteAtClass(out, s.physOff, diskio.RandWrite); err != nil {
		return err
	}
	s.physOff += int64(len(out))
	s.staging = s.staging[:0]
	return nil
}

// ReadAll fills p (which must be exactly Len() bytes) with the logical
// record stream and charges the whole-spill sequential read. Under none
// the staged tail is written first and the spill is read back straight
// into p, so the file on disk is always the whole record stream; a
// framed spill decodes its frames and keeps its tail in memory.
func (s *SpillFile) ReadAll(p []byte) error {
	if int64(len(p)) != s.logicalLen {
		return fmt.Errorf("codec: %s: drain of %d bytes, spilled %d", s.path, len(p), s.logicalLen)
	}
	if s.logicalLen == 0 {
		return nil
	}
	if IsNone(s.c) {
		if len(s.staging) > 0 {
			if err := s.flush(); err != nil {
				return err
			}
		}
		n, err := s.f.ReadAtClass(p, 0, diskio.SeqRead)
		s.acct.ReadAtClass(int64(n), 0, diskio.SeqRead)
		return err
	}
	out := p[:0]
	if s.physOff > 0 {
		raw := make([]byte, s.physOff)
		if _, err := s.f.ReadAtClass(raw, 0, diskio.SeqRead); err != nil {
			return err
		}
		var err error
		if out, err = decodeFrames(out, raw); err != nil {
			return fmt.Errorf("codec: %s: %w", s.path, err)
		}
	}
	out = append(out, s.staging...)
	if int64(len(out)) != s.logicalLen {
		return fmt.Errorf("%w: %s: spill decoded to %d bytes, want %d", ErrCorrupt, s.path, len(out), s.logicalLen)
	}
	s.acct.ReadAtClass(s.logicalLen, 0, diskio.SeqRead)
	return nil
}

// Close releases the file and resets to the lazy state, so the next
// Append starts a fresh spill cycle on a recreated file.
func (s *SpillFile) Close() error {
	var err error
	if s.f != nil {
		err = s.f.Close()
	}
	s.f, s.acct = nil, nil
	s.staging = nil
	s.physOff, s.logicalLen = 0, 0
	return err
}
