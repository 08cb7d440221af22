package veblock

import (
	"encoding/binary"
	"fmt"
	"math"

	"hybridgraph/internal/bitset"
	"hybridgraph/internal/codec"
	"hybridgraph/internal/diskio"
	"hybridgraph/internal/graph"
)

const (
	// FragAuxSize is the on-disk size of a fragment's auxiliary data
	// (svertex id + clustered edge count), the paper's S_f.
	FragAuxSize = 8
	edgeSize    = 8 // dst uint32 + weight float32
)

// BlockMeta is the paper's X_j metadata for one Vblock: kept in memory on
// the owning worker ("the memory for metadata ... is negligible").
type BlockMeta struct {
	NumVertices int
	InDegree    int64
	OutDegree   int64
	Bitmap      *bitset.Set // bit i set ⇔ Eblock g_ji is non-empty
}

type span struct {
	off   int64
	size  int64
	frags int32
	edges int32
}

// Store is one worker's share of VE-BLOCK: the Eblocks of its local
// Vblocks plus their metadata. Vertex values live in the shared
// vertexfile.Store; this type only handles edges and metadata.
type Store struct {
	layout *Layout
	worker int
	f      *codec.BlockFile
	buf    []byte // memory-resident Eblocks when f is nil
	firstB int    // global id of first local block
	nLocal int    // number of local blocks
	meta   []BlockMeta
	spans  [][]span // spans[j][i]: Eblock g_{(firstB+j), i}
	frags  int64    // total fragments on this worker (contributes to f)
	edges  int64    // total edges stored
}

// Build constructs worker w's VE-BLOCK file at path from the staged graph.
// Edges are grouped into Eblocks by (source block, destination block) and
// clustered into per-svertex fragments, then written in one sequential
// pass — the "VE-BLOCK" loading path of Fig. 16.
func Build(path string, ct *diskio.Counter, g *graph.Graph, layout *Layout, w int, cdc codec.Codec) (*Store, error) {
	s, buf, err := assemble(g, layout, w)
	if err != nil {
		return nil, err
	}
	if err := codec.WriteBlockFile(path, ct, cdc, buf); err != nil {
		return nil, err
	}
	if s.f, err = codec.OpenBlockFile(path, ct, cdc); err != nil {
		return nil, err
	}
	return s, nil
}

// Open opens a previously built VE-BLOCK file read-only. The span index
// and X_j metadata are recomputed from the staged graph — they are a
// deterministic function of (g, layout, w), so the catalog need not
// persist them. The file size must match the assembled layout; deeper
// integrity is the manifest CRC's job.
func Open(path string, ct *diskio.Counter, g *graph.Graph, layout *Layout, w int, cdc codec.Codec) (*Store, error) {
	s, buf, err := assemble(g, layout, w)
	if err != nil {
		return nil, err
	}
	f, err := codec.OpenBlockFile(path, ct, cdc)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size != int64(len(buf)) {
		f.Close()
		return nil, fmt.Errorf("veblock: %s is %d bytes, layout expects %d", path, size, len(buf))
	}
	s.f = f
	return s, nil
}

// BuildMem constructs worker w's VE-BLOCK in memory: same structure and
// scan semantics, no I/O charges (sufficient-memory scenario).
func BuildMem(g *graph.Graph, layout *Layout, w int) (*Store, error) {
	s, buf, err := assemble(g, layout, w)
	if err != nil {
		return nil, err
	}
	s.buf = buf
	return s, nil
}

func assemble(g *graph.Graph, layout *Layout, w int) (*Store, []byte, error) {
	lo, hi := layout.WorkerBlocks(w)
	s := &Store{
		layout: layout,
		worker: w,
		firstB: lo,
		nLocal: hi - lo,
		meta:   make([]BlockMeta, hi-lo),
		spans:  make([][]span, hi-lo),
	}
	v := layout.NumBlocks()
	var buf []byte
	var off int64
	for j := 0; j < s.nLocal; j++ {
		blk := layout.Blocks[lo+j]
		m := &s.meta[j]
		m.NumVertices = blk.Len()
		m.Bitmap = bitset.New(v)
		s.spans[j] = make([]span, v)

		// Group this block's out-edges by destination block, preserving
		// source order so each Eblock's edges cluster into fragments.
		byDst := make([][]graph.Edge, v)
		for u := blk.Lo; u < blk.Hi; u++ {
			out := g.OutEdges(u)
			m.OutDegree += int64(len(out))
			for _, h := range out {
				db := layout.BlockOf(h.Dst)
				if db < 0 {
					return nil, nil, fmt.Errorf("veblock: edge (%d,%d) destination outside layout", u, h.Dst)
				}
				byDst[db] = append(byDst[db], graph.Edge{Src: u, Dst: h.Dst, Weight: h.Weight})
			}
		}
		for i := 0; i < v; i++ {
			sp := span{off: off}
			edges := byDst[i]
			k := 0
			for k < len(edges) {
				src := edges[k].Src
				run := k
				for run < len(edges) && edges[run].Src == src {
					run++
				}
				var aux [FragAuxSize]byte
				binary.LittleEndian.PutUint32(aux[0:], uint32(src))
				binary.LittleEndian.PutUint32(aux[4:], uint32(run-k))
				buf = append(buf, aux[:]...)
				for _, e := range edges[k:run] {
					var rec [edgeSize]byte
					binary.LittleEndian.PutUint32(rec[0:], uint32(e.Dst))
					binary.LittleEndian.PutUint32(rec[4:], math.Float32bits(e.Weight))
					buf = append(buf, rec[:]...)
				}
				sp.frags++
				sp.edges += int32(run - k)
				k = run
			}
			sp.size = int64(sp.frags)*FragAuxSize + int64(sp.edges)*edgeSize
			off += sp.size
			s.spans[j][i] = sp
			if sp.edges > 0 {
				m.Bitmap.Set(i)
			}
			s.frags += int64(sp.frags)
			s.edges += int64(sp.edges)
		}
	}
	// In-degrees of local vertices (metadata item "ind" of X_j).
	for u := 0; u < g.NumVertices; u++ {
		for _, h := range g.OutEdges(graph.VertexID(u)) {
			if b := layout.BlockOf(h.Dst); b >= lo && b < hi {
				s.meta[b-lo].InDegree++
			}
		}
	}
	return s, buf, nil
}

// Close releases the underlying file, if any.
func (s *Store) Close() error {
	if s.f == nil {
		return nil
	}
	return s.f.Close()
}

// LocalBlocks reports the number of Vblocks this worker owns.
func (s *Store) LocalBlocks() int { return s.nLocal }

// FirstBlock reports the global id of the worker's first block.
func (s *Store) FirstBlock() int { return s.firstB }

// Fragments reports this worker's total fragment count (its share of the
// paper's f).
func (s *Store) Fragments() int64 { return s.frags }

// Edges reports the number of edges stored.
func (s *Store) Edges() int64 { return s.edges }

// SizeBytes reports the store's Eblock bytes (the on-disk file size for
// file-backed stores).
func (s *Store) SizeBytes() int64 { return s.frags*FragAuxSize + s.edges*edgeSize }

// Meta returns the metadata X_j of local block j (0-based local index).
func (s *Store) Meta(j int) *BlockMeta { return &s.meta[j] }

// EblockSize reports the on-disk byte size and fragment count of Eblock
// g_{j,i} (local j, global destination i) without reading it. Hybrid uses
// these to estimate Cio(b-pull) while running push (Section 5.3).
func (s *Store) EblockSize(j, i int) (bytes int64, frags int32, edges int32) {
	sp := s.spans[j][i]
	return sp.size, sp.frags, sp.edges
}

// ScanStats reports what a scan actually read, split into the paper's
// I/O components: fragment auxiliary bytes IO(F^t) and edge bytes
// (part of IO(Ē^t)).
type ScanStats struct {
	FragBytes int64
	EdgeBytes int64
	Fragments int
}

// ScanEblock sequentially reads Eblock g_{j,i} and invokes fn once per
// fragment with the source vertex and its clustered edges. The edges slice
// is reused across calls. Returns per-component byte counts.
func (s *Store) ScanEblock(j, i int, fn func(src graph.VertexID, edges []graph.Half) error) (ScanStats, error) {
	var st ScanStats
	if j < 0 || j >= s.nLocal || i < 0 || i >= s.layout.NumBlocks() {
		return st, fmt.Errorf("veblock: eblock (%d,%d) out of range", j, i)
	}
	sp := s.spans[j][i]
	if sp.size == 0 {
		return st, nil
	}
	var buf []byte
	if s.f == nil {
		buf = s.buf[sp.off : sp.off+sp.size]
	} else {
		buf = make([]byte, sp.size)
		if _, err := s.f.ReadAtClass(buf, sp.off, diskio.SeqRead); err != nil {
			return st, err
		}
	}
	var edges []graph.Half
	o := 0
	for o < len(buf) {
		src := graph.VertexID(binary.LittleEndian.Uint32(buf[o:]))
		cnt := int(binary.LittleEndian.Uint32(buf[o+4:]))
		o += FragAuxSize
		st.FragBytes += FragAuxSize
		st.Fragments++
		edges = edges[:0]
		for e := 0; e < cnt; e++ {
			edges = append(edges, graph.Half{
				Dst:    graph.VertexID(binary.LittleEndian.Uint32(buf[o:])),
				Weight: math.Float32frombits(binary.LittleEndian.Uint32(buf[o+4:])),
			})
			o += edgeSize
			st.EdgeBytes += edgeSize
		}
		if err := fn(src, edges); err != nil {
			return st, err
		}
	}
	return st, nil
}

// MetaMemBytes reports the in-memory footprint of the X_j metadata as the
// paper defines it — vertex count, in/out degree, bitmap and res indicator
// per Vblock (Section 4.1). The span index is an implementation aid, not
// part of X_j, and is excluded so the Fig. 23/24 memory curves measure
// what the paper measured (message buffers dominating at small V).
func (s *Store) MetaMemBytes() int64 {
	var b int64
	for j := range s.meta {
		b += 8*3 + 1 // #, ind, outd counters and the res indicator
		b += s.meta[j].Bitmap.MemBytes()
	}
	return b
}

// SetCounter retargets the store's I/O accounting (no-op for
// memory-resident stores).
func (s *Store) SetCounter(ct *diskio.Counter) {
	if s == nil || s.f == nil {
		return
	}
	s.f.SetCounter(ct)
}
