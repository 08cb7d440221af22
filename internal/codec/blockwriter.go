package codec

import (
	"encoding/binary"
	"fmt"

	"hybridgraph/internal/diskio"
)

// charges splits a store's accounting under codec c. acct takes every
// logical charge; fileCt is what the store's real file handles charge.
// Under none the file is the logical byte stream itself, so acct
// mirrors each charge onto ct's physical twin and the handles charge
// nothing. Under a real codec acct charges ct alone and the handles'
// frame I/O lands on the twin.
func charges(ct *diskio.Counter, c Codec) (acct *diskio.Accountant, fileCt *diskio.Counter) {
	if IsNone(c) {
		return diskio.NewMirroredAccountant(ct), nil
	}
	return diskio.NewAccountant(ct), ct.Phys()
}

// BlockWriter streams a write-once store (adjacency runs, a VE-BLOCK
// image) to disk without holding the logical image in memory. Logical
// bytes are staged up to ChunkSize. Under codec none each full chunk is
// written as is, so the file is exactly the logical byte stream. Under
// a real codec each chunk becomes one frame, and Close appends the chunk
// index and footer. Either way the logical charge is one sequential
// write of the whole image, taken at Close, and nothing at all for an
// empty image.
type BlockWriter struct {
	f       *diskio.File
	acct    *diskio.Accountant
	c       Codec
	raw     bool
	buf     []byte // staged logical bytes, < ChunkSize after flush
	frame   []byte
	lens    []uint32 // physical frame length per chunk
	physOff int64
	logical int64
	closed  bool
}

// NewBlockWriter creates (truncating) a block file at path, charging
// ct through c's accounting split.
func NewBlockWriter(path string, ct *diskio.Counter, c Codec) (*BlockWriter, error) {
	if c == nil {
		c = None
	}
	acct, fileCt := charges(ct, c)
	f, err := diskio.Create(path, fileCt)
	if err != nil {
		return nil, err
	}
	return &BlockWriter{f: f, acct: acct, c: c, raw: IsNone(c)}, nil
}

// Write stages logical bytes, flushing each completed ChunkSize chunk.
// Under none a write that finds nothing staged and spans at least one
// chunk goes to disk in one piece. Implements io.Writer.
func (w *BlockWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("codec: write to closed block writer %s", w.f.Name())
	}
	if w.raw && len(w.buf) == 0 && len(p) >= ChunkSize {
		return len(p), w.emit(p)
	}
	if w.buf == nil {
		w.buf = make([]byte, 0, ChunkSize)
	}
	n := len(p)
	for len(p) > 0 {
		take := ChunkSize - len(w.buf)
		if take > len(p) {
			take = len(p)
		}
		w.buf = append(w.buf, p[:take]...)
		p = p[take:]
		if len(w.buf) == ChunkSize {
			if err := w.flushChunk(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

func (w *BlockWriter) flushChunk() error {
	if err := w.emit(w.buf); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// emit writes one logical run: verbatim under none, as one frame
// otherwise.
func (w *BlockWriter) emit(logical []byte) error {
	out := stored(w.frame, w.c, logical)
	if !w.raw {
		w.frame = out
		w.lens = append(w.lens, uint32(len(out)))
	}
	if _, err := w.f.WriteAtClass(out, w.physOff, diskio.SeqWrite); err != nil {
		return err
	}
	w.physOff += int64(len(out))
	w.logical += int64(len(logical))
	return nil
}

// Logical reports the logical bytes accepted so far, staged included.
func (w *BlockWriter) Logical() int64 { return w.logical + int64(len(w.buf)) }

// Close flushes the final partial chunk, writes the index frame and
// footer of a framed file, and takes the whole-image logical charge. A
// writer that never received a byte leaves an empty file and charges
// nothing. Further Writes fail; a second Close is a no-op.
func (w *BlockWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	defer w.f.Close()
	if len(w.buf) > 0 {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	if w.logical == 0 {
		return nil
	}
	if !w.raw {
		if err := w.writeIndex(); err != nil {
			return err
		}
	}
	w.acct.WriteAtClass(w.logical, 0, diskio.SeqWrite)
	return nil
}

// writeIndex appends the chunk index frame (codec none) and the footer
// locating it.
func (w *BlockWriter) writeIndex() error {
	index := make([]byte, 0, 4+4*len(w.lens))
	index = binary.LittleEndian.AppendUint32(index, uint32(len(w.lens)))
	for _, l := range w.lens {
		index = binary.LittleEndian.AppendUint32(index, l)
	}
	indexFrame := AppendFrame(nil, None, index)
	if _, err := w.f.WriteAtClass(indexFrame, w.physOff, diskio.SeqWrite); err != nil {
		return err
	}
	footer := make([]byte, 0, footerSize)
	footer = append(footer, footerMagic...)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(w.physOff))
	footer = binary.LittleEndian.AppendUint64(footer, uint64(w.logical))
	_, err := w.f.WriteAtClass(footer, w.physOff+int64(len(indexFrame)), diskio.SeqWrite)
	return err
}
