package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/workloads"
)

// cell is one (application, design) simulation of a workload.
type cell struct {
	app    string
	design config.Design
}

// workload is a closed batch of cells run one after another in one process.
type workload struct {
	name  string
	size  workloads.Size
	cells []cell
}

// grid returns apps × designs, app-major (the order experiments.Grid uses).
func grid(apps []string, designs ...config.Design) []cell {
	var cs []cell
	for _, a := range apps {
		for _, d := range designs {
			cs = append(cs, cell{a, d})
		}
	}
	return cs
}

// benchWorkloads are the benchmark's workloads; README.md says why each was
// chosen.
var benchWorkloads = []workload{
	{"fig10-medium", workloads.SizeMedium,
		grid(workloads.Names, config.DesignC, config.DesignB, config.DesignW, config.DesignO)},
	{"lb-full", workloads.SizeFull,
		[]cell{{"ht", config.DesignO}, {"pr", config.DesignW}}},
	{"graph-cb-full", workloads.SizeFull,
		grid([]string{"spmv", "bfs", "sssp", "wcc"}, config.DesignC, config.DesignB)},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var ns []string
	for _, w := range benchWorkloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// runner runs one workload at one seed. small swaps in the 8-unit test
// geometry and test-sized datasets, so the harness tests drive the same code
// path in seconds; golden, when set, replaces the committed golden; with
// calibrate, the calibration kernel is sampled before every cell.
type runner struct {
	wl        workload
	seed      uint64
	small     bool
	golden    map[string]cellGolden
	calibrate bool
}

// cells returns the workload's cells in the order the seed picks: table
// order at the default seed, a seeded shuffle otherwise. The seed orders the
// batch and changes nothing inside a cell. Every cell keeps the paper-table
// system and dataset seeds, because under designs W and O the system seed
// changes the simulated work itself: at system seeds 1–10, lb-full allocated
// 494–551 MB and took 16.8–30.8 s on one machine, beyond any usable bound.
func (r runner) cells() []cell {
	cs := append([]cell(nil), r.wl.cells...)
	if r.seed != defaultSeed {
		rng := rand.New(rand.NewSource(int64(r.seed)))
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	}
	return cs
}

// config returns the configuration experiments.runDesign builds for d.
func (r runner) config(d config.Design) config.Config {
	cfg := config.Default()
	if r.small {
		cfg.Geometry = config.Geometry{
			Channels: 2, RanksPerChannel: 1, ChipsPerRank: 2, BanksPerChip: 2,
			BankBytes: 8 << 20,
		}
	}
	return cfg.WithDesign(d)
}

func (r runner) size() workloads.Size {
	if r.small {
		return workloads.SizeSmall
	}
	return r.wl.size
}

// goldens returns the golden cells to check against. The 8-unit variants
// have none; their cells are checked for task conservation instead.
func (r runner) goldens() (map[string]cellGolden, error) {
	if r.golden != nil {
		return r.golden, nil
	}
	if r.small {
		return nil, nil
	}
	return loadGolden(r.wl.name)
}

// timedApp wraps an application and times its Prepare and SeedEpoch calls
// from outside the simulator.
type timedApp struct {
	core.App
	prepare, seed time.Duration
}

func (a *timedApp) Prepare(s *core.System) error {
	t0 := time.Now()
	err := a.App.Prepare(s)
	a.prepare += time.Since(t0)
	return err
}

func (a *timedApp) SeedEpoch(s *core.System, ts uint32) bool {
	t0 := time.Now()
	more := a.App.SeedEpoch(s, ts)
	a.seed += time.Since(t0)
	return more
}

// pass is one run of every cell of a workload.
type pass struct {
	wall     time.Duration // cells from build to result, setup included
	newSys   time.Duration // core.New
	prepare  time.Duration // App.Prepare
	seed     time.Duration // App.SeedEpoch
	events   uint64
	allocB   uint64 // heap bytes allocated during the pass
	liveB    uint64 // largest live heap after a cell, its system still reachable
	results  []*stats.Result
	failures []string   // one line per failed cell
	cells    []cellTime // per cell, in the order the pass ran them
}

// cellTime is the host time of one cell in one pass.
type cellTime struct {
	wall  time.Duration // workloads.NewSized to Run returning
	setup time.Duration // core.New plus App.Prepare
	calib time.Duration // calibration sample just before the cell (0 without one)
}

// runPass runs every cell once, sequentially, and checks each against gold
// (or, when gold is nil, for task conservation). obs may be nil.
//
// After each cell, with the clock stopped, a forced collection marks the
// heap while the cell's system is still reachable. That makes the live heap
// the cell's whole state, the same at every run, and starts every cell on a
// clean heap, so one cell's garbage is not collected on the next one's time.
func (r runner) runPass(gold map[string]cellGolden, obs *observe) *pass {
	p := &pass{}
	runtime.GC()
	alloc0 := readMetric("/gc/heap/allocs:bytes")
	for _, c := range r.cells() {
		var ct cellTime
		if r.calibrate {
			ct.calib = calibSample()
		}
		t0 := time.Now()
		setup0 := p.newSys + p.prepare
		sys, res, err := r.runCell(c, p, obs)
		ct.wall, ct.setup = time.Since(t0), p.newSys+p.prepare-setup0
		p.wall += ct.wall
		p.cells = append(p.cells, ct)
		if err == nil {
			p.events += res.Events
			p.results = append(p.results, res)
			err = checkCell(gold, res, obs != nil)
		}
		if err != nil {
			p.failures = append(p.failures, fmt.Sprintf("%s/%v: %v", c.app, c.design, err))
		}
		runtime.GC()
		if live := readMetric("/gc/heap/live:bytes"); live > p.liveB {
			p.liveB = live
		}
		runtime.KeepAlive(sys)
	}
	p.allocB = readMetric("/gc/heap/allocs:bytes") - alloc0
	return p
}

func (r runner) runCell(c cell, p *pass, obs *observe) (*core.System, *stats.Result, error) {
	app, err := workloads.NewSized(c.app, r.size())
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	sys, err := core.New(r.config(c.design))
	p.newSys += time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	if obs != nil {
		obs.attach(sys)
	}
	ta := &timedApp{App: app}
	res, err := sys.Run(ta)
	p.prepare += ta.prepare
	p.seed += ta.seed
	if err != nil {
		return sys, nil, err
	}
	if obs != nil {
		obs.collect(sys, res)
	}
	return sys, res, nil
}

// readMetric reads one uint64 runtime metric (0 if the runtime lacks it).
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// logFailures prints failed cells to stderr.
func logFailures(p *pass) {
	for _, f := range p.failures {
		fmt.Fprintln(os.Stderr, "perfbench: cell failed:", f)
	}
}
