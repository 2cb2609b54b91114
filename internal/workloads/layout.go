package workloads

import (
	"fmt"

	"ndpbridge/internal/core"
)

// Placer hands out per-unit data addresses with alignment, modeling the
// coarse-grained interleaving of UPMEM/HBM-PIM where each unit's working set
// is contiguous in its local bank (Section II-B).
type Placer struct {
	next  []uint64
	base  []uint64
	limit uint64
}

// NewPlacer builds a placer over all of s's units.
func NewPlacer(s *core.System) *Placer {
	n := s.Units()
	p := &Placer{next: make([]uint64, n), base: make([]uint64, n), limit: s.DataBytesPerUnit()}
	for u := 0; u < n; u++ {
		p.base[u] = s.UnitBase(u)
	}
	return p
}

// Alloc reserves size bytes in unit u's bank, aligned to align (a power of
// two), and returns the address. It panics when a bank overflows — dataset
// parameters must fit the configuration.
func (p *Placer) Alloc(u int, size, align uint64) uint64 {
	off := (p.next[u] + align - 1) &^ (align - 1)
	if off+size > p.limit {
		panic(fmt.Sprintf("workloads: unit %d data region overflow (%d + %d > %d)", u, off, size, p.limit))
	}
	p.next[u] = off + size
	return p.base[u] + off
}

// Used returns the bytes allocated in unit u.
func (p *Placer) Used(u int) uint64 { return p.next[u] }

// GraphLayout places a CSR graph across the units: vertices are partitioned
// contiguously (vertex records of 64 B, packed four per G_xfer block), and
// each vertex's adjacency list is stored in its owner's bank as a chain of
// block-sized segments so that every task touches at most one block.
type GraphLayout struct {
	G       *Graph
	VAddr   []uint64   // vertex record address
	SegAddr [][]uint64 // adjacency segment block addresses per vertex
	SegLen  [][]int32  // entries per segment
	SegCap  int        // neighbors per segment
}

const vertexRecordBytes = 64

// NewGraphLayout partitions g over sys's units contiguously by vertex ID.
// RMAT's recursive quadrant bias concentrates hubs at low IDs, so this
// natural order already yields the locality real deployments get from
// cluster-aware renumbering, without manufacturing artificial hotspots.
func NewGraphLayout(sys *core.System, g *Graph) *GraphLayout {
	units := sys.Units()
	gx := sys.Cfg().GXfer
	segCap := int(gx / 4) // int32 neighbor IDs
	l := &GraphLayout{
		G:       g,
		VAddr:   make([]uint64, g.V),
		SegAddr: make([][]uint64, g.V),
		SegLen:  make([][]int32, g.V),
		SegCap:  segCap,
	}
	p := NewPlacer(sys)
	for v := 0; v < g.V; v++ {
		u := v * units / g.V
		l.VAddr[v] = p.Alloc(u, vertexRecordBytes, vertexRecordBytes)
		deg := g.Degree(v)
		for off := 0; off < deg; off += segCap {
			n := deg - off
			if n > segCap {
				n = segCap
			}
			l.SegAddr[v] = append(l.SegAddr[v], p.Alloc(u, gx, gx))
			l.SegLen[v] = append(l.SegLen[v], int32(n))
		}
	}
	return l
}

// SegNeighbors returns the neighbor IDs covered by segment si of vertex v.
func (l *GraphLayout) SegNeighbors(v, si int) []int32 {
	start := int(l.G.Offsets[v]) + si*l.SegCap
	return l.G.Edges[start : start+int(l.SegLen[v][si])]
}

// SegBytes returns the payload bytes of segment si of vertex v.
func (l *GraphLayout) SegBytes(v, si int) uint64 { return uint64(l.SegLen[v][si]) * 4 }
