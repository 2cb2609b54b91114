package workloads

import (
	"math"

	"ndpbridge/internal/core"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
)

// SSSP is bulk-synchronous single-source shortest path (Bellman-Ford
// rounds): each epoch expands the vertices whose distance improved in the
// previous epoch. Expand tasks read the vertex and spawn per-segment scans;
// scans push relax tasks carrying tentative distances to the neighbors'
// current locations; relaxes fold the minimum into the vertex state. Task
// counts are deterministic across designs.
type SSSP struct {
	p        GraphParams
	l        *GraphLayout
	dist     []uint32
	improved []int32
	dirty    []bool
	fnExpand task.FuncID
	fnScan   task.FuncID
	fnRelax  task.FuncID
}

// NewSSSP builds the application.
func NewSSSP(p GraphParams) *SSSP { return &SSSP{p: p} }

// Name implements core.App.
func (a *SSSP) Name() string { return "sssp" }

// Prepare implements core.App.
func (a *SSSP) Prepare(s *core.System) error {
	g := RMAT(sim.NewRNG(a.p.Seed), a.p.Scale, a.p.EdgeFactor)
	a.l = NewGraphLayout(s, g)
	a.dist = make([]uint32, g.V)
	a.dirty = make([]bool, g.V)
	for i := range a.dist {
		a.dist[i] = math.MaxUint32
	}
	a.fnExpand = s.Register("sssp.expand", a.expand)
	a.fnScan = s.Register("sssp.scan", a.scan)
	a.fnRelax = s.Register("sssp.relax", a.relax)
	return nil
}

// weight derives a deterministic synthetic edge weight in [1, edgeWeights].
func weight(v int, w int32) uint64 {
	return uint64((v*31+int(w)*17)%edgeWeights) + 1
}

func (a *SSSP) expand(ctx task.Ctx, t task.Task) {
	v := int(t.Args[0])
	ctx.Read(t.Addr, vertexRecordBytes)
	ctx.Compute(visitCycles)
	d := uint64(a.dist[v])
	for si := range a.l.SegAddr[v] {
		w := uint32(a.l.SegLen[v][si])*scanCycles + 10
		ctx.Enqueue(task.New(a.fnScan, t.TS, a.l.SegAddr[v][si], w,
			uint64(v), uint64(si), d))
	}
}

func (a *SSSP) scan(ctx task.Ctx, t task.Task) {
	v, si, d := int(t.Args[0]), int(t.Args[1]), t.Args[2]
	ctx.Read(t.Addr, a.l.SegBytes(v, si))
	ctx.Compute(uint64(a.l.SegLen[v][si]) * scanCycles)
	for _, w := range a.l.SegNeighbors(v, si) {
		nd := d + weight(v, w)
		if uint32(nd) >= a.dist[w] {
			continue // push-side filter against the current distance
		}
		ctx.Enqueue(task.New(a.fnRelax, t.TS, a.l.VAddr[w], 20, uint64(w), nd))
	}
}

func (a *SSSP) relax(ctx task.Ctx, t task.Task) {
	w, nd := int(t.Args[0]), uint32(t.Args[1])
	if nd >= a.dist[w] {
		ctx.Compute(4)
		return
	}
	a.dist[w] = nd
	ctx.Write(t.Addr, 8)
	ctx.Compute(10)
	if !a.dirty[w] {
		a.dirty[w] = true
		a.improved = append(a.improved, int32(w))
	}
}

// SeedEpoch implements core.App: epoch k expands the vertices improved in
// epoch k−1 (one Bellman-Ford round per epoch).
func (a *SSSP) SeedEpoch(s *core.System, ts uint32) bool {
	if int(ts) >= a.p.MaxEpochs {
		return false
	}
	if ts == 0 {
		for _, r := range sources(a.l.G, a.p.Roots) {
			if a.dist[r] != 0 {
				a.dist[r] = 0
				a.improved = append(a.improved, int32(r))
				a.dirty[r] = true
			}
		}
	}
	if len(a.improved) == 0 {
		return false
	}
	frontier := a.improved
	a.improved = nil
	for _, v := range frontier {
		a.dirty[v] = false
		w := uint32(visitCycles + a.l.G.Degree(int(v))*scanCycles/4 + 10)
		s.Seed(task.New(a.fnExpand, ts, a.l.VAddr[v], w, uint64(v)))
	}
	return true
}

// Reached counts vertices with a finite distance, for verification.
func (a *SSSP) Reached() int {
	n := 0
	for _, d := range a.dist {
		if d != math.MaxUint32 {
			n++
		}
	}
	return n
}
