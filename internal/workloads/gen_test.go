package workloads

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"ndpbridge/internal/sim"
)

func TestZipfRange(t *testing.T) {
	z := NewZipf(sim.NewRNG(1), 100, 0.99)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(sim.NewRNG(2), 1000, 0.99)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Item 0 should be far hotter than the median item.
	if counts[0] < counts[500]*20 {
		t.Errorf("insufficient skew: head=%d median=%d", counts[0], counts[500])
	}
	// Monotonic-ish decay: head dominates the tail half.
	head, tail := 0, 0
	for i, c := range counts {
		if i < 100 {
			head += c
		} else if i >= 500 {
			tail += c
		}
	}
	if head < tail {
		t.Errorf("head %d < tail %d", head, tail)
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z := NewZipf(sim.NewRNG(3), 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < 3500 || c > 6500 {
			t.Errorf("bucket %d = %d, expected ~5000", i, c)
		}
	}
}

func TestZipfBadNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewZipf(sim.NewRNG(1), 0, 1)
}

func TestRMATShape(t *testing.T) {
	g := RMAT(sim.NewRNG(7), 10, 8)
	if g.V != 1024 {
		t.Fatalf("V = %d", g.V)
	}
	if g.E() != 1024*8 {
		t.Fatalf("E = %d", g.E())
	}
	// CSR consistency.
	if int(g.Offsets[g.V]) != g.E() {
		t.Fatal("offsets do not cover edges")
	}
	total := 0
	for v := 0; v < g.V; v++ {
		d := g.Degree(v)
		if d < 0 {
			t.Fatal("negative degree")
		}
		total += d
		for _, w := range g.Neighbors(v) {
			if w < 0 || int(w) >= g.V {
				t.Fatalf("edge target out of range: %d", w)
			}
		}
	}
	if total != g.E() {
		t.Fatalf("degree sum %d != E %d", total, g.E())
	}
}

func TestRMATPowerLaw(t *testing.T) {
	g := RMAT(sim.NewRNG(9), 12, 8)
	// A power-law graph's max degree vastly exceeds the average.
	avg := g.E() / g.V
	if g.MaxDegree() < avg*10 {
		t.Errorf("max degree %d not skewed vs avg %d", g.MaxDegree(), avg)
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(sim.NewRNG(5), 8, 4)
	b := RMAT(sim.NewRNG(5), 8, 4)
	if a.E() != b.E() {
		t.Fatal("nondeterministic")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("nondeterministic edges")
		}
	}
}

func TestChain(t *testing.T) {
	g := Chain(5)
	if g.V != 5 || g.E() != 4 {
		t.Fatalf("chain shape wrong: V=%d E=%d", g.V, g.E())
	}
	for v := 0; v < 4; v++ {
		ns := g.Neighbors(v)
		if len(ns) != 1 || int(ns[0]) != v+1 {
			t.Fatalf("vertex %d neighbors = %v", v, ns)
		}
	}
	if g.Degree(4) != 0 {
		t.Fatal("last vertex must have no out-edges")
	}
}

// rmatReference is the float-compare R-MAT decoder: one Float64 draw per
// bit level, classified by a switch over the cumulative quadrant
// probabilities. RMAT must reproduce it graph for graph and leave the RNG
// in the same state.
func rmatReference(rng *sim.RNG, scale, edgeFactor int) *Graph {
	v := 1 << scale
	e := v * edgeFactor
	const a, b, c = 0.57, 0.19, 0.19
	type edge struct{ src, dst int32 }
	edges := make([]edge, 0, e)
	for i := 0; i < e; i++ {
		var src, dst int
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
			case r < a+b:
				dst |= 1 << bit
			case r < a+b+c:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges = append(edges, edge{int32(src), int32(dst)})
	}
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

func TestRMATMatchesReference(t *testing.T) {
	for _, seed := range []uint64{0, 1, 19, 23, 12345} {
		for scale := 1; scale <= 16; scale++ {
			for _, ef := range []int{1, 4, 8} {
				gr, wr := sim.NewRNG(seed), sim.NewRNG(seed)
				got, want := RMAT(gr, scale, ef), rmatReference(wr, scale, ef)
				if got.V != want.V || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Edges, want.Edges) {
					t.Fatalf("seed %d scale %d ef %d: graph differs from the reference", seed, scale, ef)
				}
				if gr.State() != wr.State() {
					t.Fatalf("seed %d scale %d ef %d: RNG state %#x, reference %#x", seed, scale, ef, gr.State(), wr.State())
				}
			}
		}
	}
}

// TestRMATThresholdExact checks the decode at its boundary, which random
// draws almost never hit: m/2^53 < p must hold exactly for m below the
// threshold and fail from it on. 1/3 and 0.1 have fractional p·2^53, so
// they exercise the rounding up.
func TestRMATThresholdExact(t *testing.T) {
	const a, b, c = 0.57, 0.19, 0.19
	for _, p := range []float64{a, a + b, a + b + c, 1.0 / 3, 0.1} {
		m := rmatThreshold(p)
		below, at := float64(m-1)/(1<<53), float64(m)/(1<<53)
		if !(below < p) || at < p {
			t.Errorf("p=%v: threshold %d, but %v < p is %v and %v < p is %v", p, m, below, below < p, at, at < p)
		}
		if atLeast(m-1, m) != 0 || atLeast(m, m) != 1 || atLeast(0, m) != 0 || atLeast(1<<53-1, m) != 1 {
			t.Errorf("p=%v: atLeast wrong around threshold %d", p, m)
		}
	}
}

// graphDigest is FNV-1a over the little-endian CSR arrays.
func graphDigest(g *Graph) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 4*(len(g.Offsets)+len(g.Edges)))
	for _, x := range g.Offsets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	for _, x := range g.Edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	h.Write(buf)
	return h.Sum64()
}

// TestRMATPinnedDatasets pins the graphs the experiment tables are built
// from: seeds 19 (spmv) and 23 (bfs, sssp, wcc, pr) at the full (16/8),
// Fig. 12 pr (15/8), medium (14/8) and small (8/4) shapes. A generator
// change that alters any of them fails here rather than as a shifted table.
func TestRMATPinnedDatasets(t *testing.T) {
	cases := []struct {
		seed       uint64
		scale, ef  int
		digest     uint64
		finalState uint64
	}{
		{19, 16, 8, 0xbce1d4f7d811269f, 0xdeee58539b261a03},
		{19, 15, 8, 0xdf0649fd295cd2de, 0xa8c095211bfcb2a9},
		{19, 14, 8, 0xc9be38a1bf7eb789, 0xbd01ed2df31e5fd9},
		{19, 8, 4, 0xa7485366199ac657, 0x3d290c249ecc8b3d},
		{23, 16, 8, 0x143cb3bad1a11267, 0xd856f745c458950b},
		{23, 15, 8, 0xe7b15315076667fb, 0x3ea82453948c9012},
		{23, 14, 8, 0x2ba0fef562431ba6, 0x3d2306c1086fe3b0},
		{23, 8, 4, 0x96fbd873331ca71d, 0x9b51f71a5c5793fa},
	}
	for _, c := range cases {
		rng := sim.NewRNG(c.seed)
		g := RMAT(rng, c.scale, c.ef)
		if d := graphDigest(g); d != c.digest || rng.State() != c.finalState {
			t.Errorf("seed %d scale %d ef %d: digest %#x state %#x, want %#x %#x",
				c.seed, c.scale, c.ef, d, rng.State(), c.digest, c.finalState)
		}
	}
}

// rmatSink keeps BenchmarkRMAT's result live so the call is not elided.
var rmatSink *Graph

// BenchmarkRMAT generates the paper-sized graph (scale 16, edge factor 8).
func BenchmarkRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rmatSink = RMAT(sim.NewRNG(23), 16, 8)
	}
}
