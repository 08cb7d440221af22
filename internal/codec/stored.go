package codec

import (
	"fmt"
	"io"
	"os"

	"hybridgraph/internal/diskio"
)

// Stored files are the whole-record files the engine writes outside the
// block stores: message-log segments (a run of records, appended one at
// a time) and checkpoint snapshots (one image, written durably). Under
// codec none a record is stored verbatim; under a real codec each
// record is stored as one frame. The files describe themselves, so a
// reader needs no codec: a file that starts with the frame magic is a
// run of frames, anything else is the raw layout (a raw message-log
// record starts with its kind byte, a raw snapshot with "HGCK"), so a
// whole file is one or the other.

// stored returns logical in c's stored form: the bytes themselves under
// none, otherwise one frame built in buf's storage.
func stored(buf []byte, c Codec, logical []byte) []byte {
	if IsNone(c) {
		return logical
	}
	return AppendFrame(buf[:0], c, logical)
}

// sniff reports whether the file at path is framed, and its size.
// Format detection is uncharged metadata introspection, like os.Stat,
// and bypasses the fault layer: a flipped bit in the data read that
// follows must surface as corruption, not as a different format.
func sniff(path string) (framed bool, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false, 0, err
	}
	head := make([]byte, len(magic))
	n, _ := io.ReadFull(f, head)
	return string(head[:n]) == magic, st.Size(), nil
}

// decodeFrames decodes a run of frames, appending the logical bytes to
// dst.
func decodeFrames(dst, stored []byte) ([]byte, error) {
	for len(stored) > 0 {
		var n int
		var err error
		if dst, n, err = DecodeFrame(dst, stored); err != nil {
			return nil, err
		}
		stored = stored[n:]
	}
	return dst, nil
}

// readWhole reads path in full through the fault layer, charging the
// read to fileCt as one sequential read (nothing for an empty file).
func readWhole(path string, fileCt *diskio.Counter) ([]byte, error) {
	f, err := diskio.OpenRead(path, fileCt)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil || size == 0 {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := f.ReadAtClass(buf, 0, diskio.SeqRead); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadFile reads the whole stored file at path and returns its logical
// bytes. The read is charged as the writer's codec charged it: a raw
// file as one sequential read of its size on ct, mirrored onto the
// physical twin; a framed file as one sequential read of its size on
// the twin plus one of its decoded length on ct. An empty file charges
// nothing.
func ReadFile(path string, ct *diskio.Counter) ([]byte, error) {
	framed, size, err := sniff(path)
	if err != nil || size == 0 {
		return nil, err
	}
	stored, err := readWhole(path, nil)
	if err != nil {
		return nil, err
	}
	if !framed {
		diskio.NewMirroredAccountant(ct).ReadAtClass(int64(len(stored)), 0, diskio.SeqRead)
		return stored, nil
	}
	diskio.NewAccountant(ct.Phys()).ReadAtClass(int64(len(stored)), 0, diskio.SeqRead)
	logical, err := decodeFrames(nil, stored)
	if err != nil {
		return nil, fmt.Errorf("codec: %s: %w", path, err)
	}
	diskio.NewAccountant(ct).ReadAtClass(int64(len(logical)), 0, diskio.SeqRead)
	return logical, nil
}

// LogicalSize reports the logical length of the stored file at path.
// A raw file's length is its size, learnt without data I/O. A framed
// file is read and decoded in full; that read is physical-only, charged
// to ct's physical twin (pass nil to charge nothing).
func LogicalSize(path string, ct *diskio.Counter) (int64, error) {
	framed, size, err := sniff(path)
	if err != nil || !framed {
		return size, err
	}
	stored, err := readWhole(path, ct.Phys())
	if err != nil {
		return 0, err
	}
	logical, err := decodeFrames(nil, stored)
	if err != nil {
		return 0, fmt.Errorf("codec: %s: %w", path, err)
	}
	return int64(len(logical)), nil
}

// WriteFileSync atomically replaces path with logical stored under c
// (tmp + fsync + rename through the fault layer, see
// diskio.WriteFileSync). ct is charged one class-cl write of the logical
// length plus the sync op, through c's accounting split.
func WriteFileSync(path string, ct *diskio.Counter, c Codec, logical []byte, cl diskio.Class) error {
	acct, fileCt := charges(ct, c)
	if err := diskio.WriteFileSync(path, stored(nil, c, logical), fileCt, cl); err != nil {
		return err
	}
	acct.WriteAtClass(int64(len(logical)), 0, cl)
	acct.Sync()
	return nil
}

// AppendFile is an append-only stored file (a message-log segment). Each
// Append stores one record with one real write, so a record is either
// on disk whole or torn at its own tail, and Sync makes every appended
// record durable. Charges: one sequential write of the record's logical
// length per Append, and the sync op per Sync.
type AppendFile struct {
	f    *diskio.File
	acct *diskio.Accountant
	c    Codec
	off  int64 // logical append position
	poff int64 // physical append position
}

// OpenAppend opens path for appending under codec c, creating it when
// missing. An existing file is reopened at its tail; learning a framed
// file's logical tail re-reads it, a physical-only cost (see
// LogicalSize).
func OpenAppend(path string, ct *diskio.Counter, c Codec) (*AppendFile, error) {
	acct, fileCt := charges(ct, c)
	a := &AppendFile{acct: acct, c: c}
	if _, err := os.Stat(path); err != nil {
		if a.f, err = diskio.Create(path, fileCt); err != nil {
			return nil, err
		}
		return a, nil
	}
	f, err := diskio.Open(path, fileCt)
	if err != nil {
		return nil, err
	}
	if a.poff, err = f.Size(); err == nil {
		a.off, err = LogicalSize(path, ct)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("codec: reopen %s: %w", path, err)
	}
	a.f = f
	return a, nil
}

// Append stores rec at the tail.
func (a *AppendFile) Append(rec []byte) error {
	out := stored(nil, a.c, rec)
	if _, err := a.f.WriteAtClass(out, a.poff, diskio.SeqWrite); err != nil {
		return err
	}
	a.acct.WriteAtClass(int64(len(rec)), a.off, diskio.SeqWrite)
	a.poff += int64(len(out))
	a.off += int64(len(rec))
	return nil
}

// Sync makes every appended record durable.
func (a *AppendFile) Sync() error {
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.acct.Sync()
	return nil
}

// Close releases the file.
func (a *AppendFile) Close() error { return a.f.Close() }
