// Package experiments regenerates every table and figure of the NDPBridge
// paper's evaluation (Section VIII) on the simulator: the baseline
// inefficiency study (Fig. 2), the overall comparison (Fig. 10), the
// alternative-architecture comparison (Fig. 11), scalability (Fig. 12),
// energy (Fig. 13), the load-balancing and triggering ablations (Fig. 14),
// the DQ-width study (Fig. 15), the design-parameter sweeps (Fig. 16), the
// split-DIMM-buffer variant (Section VIII-A), and the configuration tables
// (Tables I and II).
//
// Every experiment has a Small variant used by the test suite; the full
// variants run the paper-sized workloads.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/workloads"
)

// Scale selects workload and system sizing.
type Scale int

const (
	// Full runs the paper-sized configuration (512 units).
	Full Scale = iota
	// Medium keeps the full 512-unit system but runs reduced workloads,
	// regenerating the whole figure suite in minutes (the default for
	// `go test -bench`).
	Medium
	// Small runs an 8-unit system with test-sized workloads.
	Small
)

// baseConfig returns the starting configuration for a scale.
func baseConfig(sc Scale) config.Config {
	cfg := config.Default()
	if sc == Small {
		cfg.Geometry = config.Geometry{
			Channels: 2, RanksPerChannel: 1, ChipsPerRank: 2, BanksPerChip: 2,
			BankBytes: 8 << 20,
		}
	}
	return cfg
}

// newApp builds a workload at the right size.
func newApp(name string, sc Scale) (core.App, error) {
	switch sc {
	case Small:
		return workloads.NewSmall(name)
	case Medium:
		return workloads.NewMedium(name)
	}
	return workloads.New(name)
}

// run executes one (app, config) pair, consulting the campaign checkpoint
// cache first when one is configured. The cache stores final results only,
// so it is neither consulted nor filled while a metrics registry, a flow
// recorder or the auditor is on: a cached result carries no metrics or
// trace, and was never audited.
func run(cfg config.Config, appName string, sc Scale) (*stats.Result, error) {
	dir := CheckpointDir()
	var key []byte
	if dir != "" && !metricsEnabled() && !flowTraceEnabled() && AuditEvery() == 0 {
		var err error
		key, err = cacheKeyMaterial(cfg, appName, sc)
		if err != nil {
			return nil, err
		}
		if r := loadCachedRun(dir, key); r != nil {
			ctrCacheHits.Add(1)
			return r, nil
		}
	}
	app, err := newApp(appName, sc)
	if err != nil {
		return nil, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if auditEvery := AuditEvery(); auditEvery != 0 {
		if err := sys.AttachAudit(auditEvery); err != nil {
			return nil, err
		}
	}
	r, err := runSystem(sys, app)
	if err != nil {
		return nil, err
	}
	if key != nil {
		if err := saveCachedRun(dir, key, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runSystem executes one prepared system and feeds the global run counters
// that back ndpbench's events/sec summary. Every simulation in this package
// goes through it; when metrics collection is enabled (EnableMetrics) and the
// caller did not attach its own registry, the run gets a private one that is
// merged into the package aggregate after the run.
func runSystem(sys *core.System, app core.App) (*stats.Result, error) {
	collect := false
	if sys.Metrics() == nil && metricsEnabled() {
		sys.AttachMetrics(metrics.NewRegistry())
		collect = true
	}
	attachFlowTrace(sys.AttachTrace, sys.Trace())
	// Cancellation checkpoint: once the pool is canceled, the engine halts
	// within 64K events instead of finishing a long simulation. The hook runs
	// on the engine's own goroutine, so Stop needs no synchronization.
	eng := sys.Engine()
	eng.SetProgress(1<<16, func(_, _ uint64) {
		if canceled.Load() {
			eng.Stop()
		}
	})
	r, err := sys.Run(app)
	if canceled.Load() {
		return nil, ErrCanceled
	}
	if err != nil {
		return nil, err
	}
	if collect {
		mergeMetrics(sys.Metrics(), r.App+"/"+r.Design+"/")
	}
	if r.Crit != nil {
		addCritRow(CritRow{App: r.App, Design: r.Design, Makespan: r.Makespan, Crit: *r.Crit})
	}
	ctrRuns.Add(1)
	ctrEvents.Add(r.Events)
	ctrCycles.Add(r.Makespan)
	return r, nil
}

// Run counters: simulations executed, engine events processed, and
// simulated cycles covered since the last ResetCounters. Atomic because the
// worker pool updates them concurrently.
var ctrRuns, ctrEvents, ctrCycles atomic.Uint64

// RunCounters is a snapshot of the package-wide simulation totals.
type RunCounters struct {
	Runs   uint64 // simulations completed
	Events uint64 // discrete events processed across all engines
	Cycles uint64 // simulated cycles summed over runs
}

// ResetCounters zeroes the run counters (call before an experiment).
func ResetCounters() {
	ctrRuns.Store(0)
	ctrEvents.Store(0)
	ctrCycles.Store(0)
	ctrCacheHits.Store(0)
}

// Counters returns the totals accumulated since the last ResetCounters.
func Counters() RunCounters {
	return RunCounters{Runs: ctrRuns.Load(), Events: ctrEvents.Load(), Cycles: ctrCycles.Load()}
}

// runDesign is run with a design selector applied.
func runDesign(sc Scale, appName string, d config.Design, mutate func(*config.Config)) (*stats.Result, error) {
	cfg := baseConfig(sc).WithDesign(d)
	if mutate != nil {
		mutate(&cfg)
	}
	return run(cfg, appName, sc)
}

// geomean returns the geometric mean of xs (which must be positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Apps lists the evaluated workloads, in paper order.
func Apps() []string { return workloads.Names }

// CellResult is one (app, design) measurement.
type CellResult struct {
	App    string
	Design string
	R      *stats.Result
}

// Grid runs apps × designs on the worker pool and returns every result,
// app-major. Each cell is an independent simulation; results come back in
// the same deterministic order a sequential double loop would produce.
func Grid(sc Scale, apps []string, designs []config.Design, mutate func(*config.Config)) ([]CellResult, error) {
	nd := len(designs)
	return parMap(len(apps)*nd, func(i int) (CellResult, error) {
		a, d := apps[i/nd], designs[i%nd]
		r, err := runDesign(sc, a, d, mutate)
		if err != nil {
			return CellResult{}, fmt.Errorf("%s/%v: %w", a, d, err)
		}
		return CellResult{App: a, Design: d.String(), R: r}, nil
	})
}

// byApp reshapes grid results into app → design → result.
func byApp(cells []CellResult) (map[string]map[string]*stats.Result, []string) {
	m := make(map[string]map[string]*stats.Result)
	var order []string
	for _, c := range cells {
		if m[c.App] == nil {
			m[c.App] = make(map[string]*stats.Result)
			order = append(order, c.App)
		}
		m[c.App][c.Design] = c.R
	}
	return m, order
}

// speedupGeomean computes the geomean across apps of base/design makespan.
func speedupGeomean(m map[string]map[string]*stats.Result, apps []string, base, design string) float64 {
	var xs []float64
	for _, a := range apps {
		b, ok1 := m[a][base]
		d, ok2 := m[a][design]
		if !ok1 || !ok2 || d.Makespan == 0 {
			continue
		}
		xs = append(xs, float64(b.Makespan)/float64(d.Makespan))
	}
	return geomean(xs)
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// sortedKeys returns map keys in sorted order (determinism in rendering).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
