// Package workloads implements the eight data-intensive applications of the
// paper's evaluation (Section VII) on the NDPBridge task-based programming
// model — linked-list traversal, hash table, tree traversal, SpMV, BFS,
// SSSP, PageRank, and weakly connected components — together with the
// synthetic dataset generators standing in for the paper's SNAP graphs and
// UFL matrices: an RMAT power-law graph generator and Zipfian query
// generators (the paper itself uses Zipfian data/queries for ll, ht, tree).
package workloads

import (
	"math"

	"ndpbridge/internal/sim"
)

// Zipf draws values in [0, n) with P(k) ∝ 1/(k+1)^theta. It uses the
// classic inverted-CDF-over-precomputed-harmonics method, exact and
// deterministic for moderate n.
type Zipf struct {
	cdf []float64
	rng *sim.RNG
}

// NewZipf builds a Zipfian sampler over n items with skew theta (theta=0 is
// uniform; the paper-style hot skew uses ~0.99).
func NewZipf(rng *sim.RNG, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("workloads: Zipf needs positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next samples one value.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Graph is a directed graph in CSR form.
type Graph struct {
	V       int
	Offsets []int32 // len V+1
	Edges   []int32 // len E
}

// E returns the edge count.
func (g *Graph) E() int { return len(g.Edges) }

// Degree returns vertex v's out-degree.
func (g *Graph) Degree(v int) int { return int(g.Offsets[v+1] - g.Offsets[v]) }

// Neighbors returns vertex v's adjacency slice (do not modify).
func (g *Graph) Neighbors(v int) []int32 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// RMAT generates a scale-free directed graph with 2^scale vertices and
// approximately edgeFactor × V edges using the R-MAT recursive quadrant
// process (a=0.57, b=c=0.19), the standard stand-in for power-law real-world
// graphs. Self-loops are kept (harmless for our kernels); duplicate edges
// are kept too, matching multigraph traffic.
//
// Each bit level takes one draw, which picks a quadrant by comparing
// rng.Float64() against the cumulative probabilities a, a+b and a+b+c.
// The decode is done on the draw's integer mantissa instead, without
// branches (see rmatThreshold), so the graph and the RNG's final state are
// exactly those of the float comparison.
func RMAT(rng *sim.RNG, scale, edgeFactor int) *Graph {
	v := 1 << scale
	e := v * edgeFactor
	const a, b, c = 0.57, 0.19, 0.19
	ta, tab, tabc := rmatThreshold(a), rmatThreshold(a+b), rmatThreshold(a+b+c)
	type edge struct{ src, dst int32 }
	edges := make([]edge, e)
	r := *rng // draw from a local copy; rng takes its final state below
	for i := range edges {
		var src, dst uint32
		for bit := 0; bit < scale; bit++ {
			m := r.Uint64() >> 11
			// The quadrants split [0, 1) in the order a (no bit), b (dst),
			// c (src), d (both): src is set from a+b up, dst on [a, a+b)
			// and from a+b+c up.
			s := atLeast(m, tab)
			src = src<<1 | s
			dst = dst<<1 | (atLeast(m, ta) ^ s ^ atLeast(m, tabc))
		}
		edges[i] = edge{int32(src), int32(dst)}
	}
	*rng = r
	// Counting sort into CSR.
	offsets := make([]int32, v+1)
	for _, ed := range edges {
		offsets[ed.src+1]++
	}
	for i := 1; i <= v; i++ {
		offsets[i] += offsets[i-1]
	}
	adj := make([]int32, len(edges))
	cursor := make([]int32, v)
	copy(cursor, offsets[:v])
	for _, ed := range edges {
		adj[cursor[ed.src]] = ed.dst
		cursor[ed.src]++
	}
	return &Graph{V: v, Offsets: offsets, Edges: adj}
}

// rmatThreshold returns the integer form of the test Float64() < p. Float64
// returns m/2^53 for the 53-bit mantissa m = Uint64()>>11, so m/2^53 < p
// holds exactly when m < ceil(p·2^53): p·2^53 only shifts p's exponent, so
// the product is exact, and m is an integer.
func rmatThreshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// atLeast returns 1 if m >= t and 0 otherwise, without a branch. Both are
// at most 2^53 and t > 0, so t-1-m wraps below zero (setting bit 63)
// exactly when m >= t.
func atLeast(m, t uint64) uint32 { return uint32((t - 1 - m) >> 63) }

// Chain generates a deterministic path graph, useful in tests.
func Chain(n int) *Graph {
	offsets := make([]int32, n+1)
	edges := make([]int32, 0, n-1)
	for v := 0; v < n; v++ {
		offsets[v] = int32(len(edges))
		if v+1 < n {
			edges = append(edges, int32(v+1))
		}
	}
	offsets[n] = int32(len(edges))
	return &Graph{V: n, Offsets: offsets, Edges: edges}
}

// MaxDegree returns the largest out-degree, a skew indicator.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.V; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}
