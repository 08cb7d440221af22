// Package adjstore implements the Giraph-style on-disk adjacency list used
// by the push engines (and by hybrid when it runs push supersteps): for
// each vertex a run of out-edges, addressed through an in-memory offset
// index. The paper stores edges twice in HybridGraph — once here, once in
// VE-BLOCK — because pushRes() needs all out-edges of one vertex together
// while b-pull needs them clustered by destination block (Section 5.2,
// "Data Storage").
package adjstore

import (
	"encoding/binary"
	"fmt"

	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
)

const edgeSize = 8 // dst uint32 + weight float32

// Store holds the out-edges of one worker's vertex range [Lo, Lo+N).
type Store struct {
	f      *codec.BlockFile
	lo     graph.VertexID
	offs   []int64 // len N+1, byte offsets into the file
	nEdges int64
	memG   *graph.Graph // non-nil for memory-resident stores
}

// Build writes the adjacency runs for partition part of g to path and
// returns the opened store. The write is one sequential pass, mirroring
// the paper's Fig. 16 "adj" loading path; cdc chooses how the pass is
// stored (see codec.BlockWriter), never what it is charged.
func Build(path string, ct *diskio.Counter, g *graph.Graph, part graph.Partition, cdc codec.Codec) (*Store, error) {
	n := part.Len()
	s := &Store{lo: part.Lo, offs: make([]int64, n+1)}
	// Buffer whole partition; partitions are modest at our scales.
	var buf []byte
	var off int64
	for i := 0; i < n; i++ {
		v := part.Lo + graph.VertexID(i)
		s.offs[i] = off
		for _, h := range g.OutEdges(v) {
			var rec [edgeSize]byte
			binary.LittleEndian.PutUint32(rec[0:], uint32(h.Dst))
			binary.LittleEndian.PutUint32(rec[4:], floatBits(h.Weight))
			buf = append(buf, rec[:]...)
			off += edgeSize
			s.nEdges++
		}
	}
	s.offs[n] = off
	if err := codec.WriteBlockFile(path, ct, cdc, buf); err != nil {
		return nil, err
	}
	f, err := codec.OpenBlockFile(path, ct, cdc)
	if err != nil {
		return nil, err
	}
	s.f = f
	return s, nil
}

// BuildReverse is Build over the transpose: it stores, for each vertex of
// the partition, its *in*-edges (sources as Dst fields). The pull baseline
// gathers along in-edges.
func BuildReverse(path string, ct *diskio.Counter, g *graph.Graph, part graph.Partition, cdc codec.Codec) (*Store, error) {
	return Build(path, ct, g.Reverse(), part, cdc)
}

// Open opens a previously built adjacency file read-only, recomputing the
// offset index from the staged graph — the index is a deterministic
// function of (g, part), so the catalog need not persist it. The file size
// must match the index; deeper integrity is the manifest CRC's job.
func Open(path string, ct *diskio.Counter, g *graph.Graph, part graph.Partition, cdc codec.Codec) (*Store, error) {
	f, err := codec.OpenBlockFile(path, ct, cdc)
	if err != nil {
		return nil, err
	}
	n := part.Len()
	s := &Store{f: f, lo: part.Lo, offs: make([]int64, n+1)}
	var off int64
	for i := 0; i < n; i++ {
		s.offs[i] = off
		d := g.OutDegree(part.Lo + graph.VertexID(i))
		off += int64(d) * edgeSize
		s.nEdges += int64(d)
	}
	s.offs[n] = off
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size != off {
		f.Close()
		return nil, fmt.Errorf("adjstore: %s is %d bytes, index expects %d", path, size, off)
	}
	return s, nil
}

// SizeBytes reports the store's edge-run bytes (the on-disk file size for
// file-backed stores).
func (s *Store) SizeBytes() int64 { return s.nEdges * edgeSize }

// Close releases the underlying file, if any.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}

// Lo reports the first vertex id in the store.
func (s *Store) Lo() graph.VertexID { return s.lo }

// Len reports the number of vertices covered.
func (s *Store) Len() int { return len(s.offs) - 1 }

// NumEdges reports the number of stored edges.
func (s *Store) NumEdges() int64 { return s.nEdges }

// Degree reports the out-degree of v without touching disk (the index is
// in memory, like Hama's edge-offset table).
func (s *Store) Degree(v graph.VertexID) (int, error) {
	i, err := s.idx(v)
	if err != nil {
		return 0, err
	}
	return int((s.offs[i+1] - s.offs[i]) / edgeSize), nil
}

// EdgeBytes reports the on-disk byte size of v's edge run, used by hybrid
// to estimate IO(Et) for push without running it.
func (s *Store) EdgeBytes(v graph.VertexID) (int64, error) {
	i, err := s.idx(v)
	if err != nil {
		return 0, err
	}
	return s.offs[i+1] - s.offs[i], nil
}

// Edges reads v's out-edges, appending to dst and returning it. Reads are
// charged as sequential: push streams the edge file in vertex-id order, and
// the paper's Eq. 11 accounts IO(Et) at sequential-read throughput. raw,
// when non-nil, is the caller's scratch for the encoded run: it grows as
// needed and is reused from call to call, so a scan reading edge run
// after edge run allocates only when a run outgrows every earlier one.
func (s *Store) Edges(v graph.VertexID, dst []graph.Half, raw *[]byte) ([]graph.Half, error) {
	i, err := s.idx(v)
	if err != nil {
		return dst, err
	}
	if s.memG != nil {
		return append(dst, s.memG.OutEdges(v)...), nil
	}
	length := int(s.offs[i+1] - s.offs[i])
	if length == 0 {
		return dst, nil
	}
	if raw == nil {
		raw = new([]byte)
	}
	if cap(*raw) < length {
		*raw = make([]byte, length)
	}
	buf := (*raw)[:length]
	if _, err := s.f.ReadAtClass(buf, s.offs[i], diskio.SeqRead); err != nil {
		return dst, err
	}
	for o := 0; o < len(buf); o += edgeSize {
		dst = append(dst, graph.Half{
			Dst:    graph.VertexID(binary.LittleEndian.Uint32(buf[o:])),
			Weight: floatFromBits(binary.LittleEndian.Uint32(buf[o+4:])),
		})
	}
	return dst, nil
}

func (s *Store) idx(v graph.VertexID) (int, error) {
	if v < s.lo || int(v-s.lo) >= s.Len() {
		return 0, fmt.Errorf("adjstore: vertex %d outside [%d,%d)", v, s.lo, int(s.lo)+s.Len())
	}
	return int(v - s.lo), nil
}

// SetCounter retargets the store's I/O accounting (no-op for
// memory-resident stores).
func (s *Store) SetCounter(ct *diskio.Counter) {
	if s == nil || s.f == nil {
		return
	}
	s.f.SetCounter(ct)
}
