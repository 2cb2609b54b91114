// Command ndpbench regenerates the NDPBridge paper's tables and figures
// (Section VIII) on the simulator:
//
//	ndpbench                  # every experiment at full scale (slow)
//	ndpbench -exp fig10       # one experiment
//	ndpbench -exp fig14a -scale small
//	ndpbench -j 8             # eight simulations in flight at once
//	ndpbench -benchjson results/bench.json
//	ndpbench -metrics results/  # per-experiment instrument metrics JSON
//	ndpbench -pprof-cpu cpu.out -exp fig10
//	ndpbench chaos -chaos-runs 64 -chaos-seed 1   # fault-plan fuzzing + crash torture
//
// Experiments: fig2, fig10, fig11, fig12, fig13, fig14a, fig14b, fig15,
// fig16a, fig16b, fig16cd, splitdb, l2variants, latency, tab1, tab2,
// serving (open-loop saturation sweep), servedegrade (rank-dark
// degradation curve).
//
// Independent (app, design, config) simulations are fanned across a worker
// pool; -j controls its width (default: one worker per CPU, -j 1 restores
// the sequential order-of-execution, which produces identical tables).
// Each experiment prints wall-clock time and aggregate simulation speed in
// events/sec; -benchjson additionally records the per-experiment numbers as
// machine-readable JSON for tracking the perf trajectory across commits.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/experiments"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/stats"
)

type expFn func(experiments.Scale) (*stats.Table, error)

var all = []struct {
	name string
	fn   expFn
	// analytic marks experiments computed from closed-form models rather
	// than simulation: they run no events, so they are excluded from the
	// aggregate events/sec summary instead of diluting it with zeros.
	analytic bool
}{
	{name: "tab1", fn: func(experiments.Scale) (*stats.Table, error) { return experiments.Table1(), nil }, analytic: true},
	{name: "tab2", fn: func(experiments.Scale) (*stats.Table, error) { return experiments.Table2(), nil }, analytic: true},
	{name: "fig2", fn: experiments.Fig2},
	{name: "fig10", fn: func(sc experiments.Scale) (*stats.Table, error) { t, _, err := experiments.Fig10(sc); return t, err }},
	{name: "fig11", fn: func(sc experiments.Scale) (*stats.Table, error) { t, _, err := experiments.Fig11(sc); return t, err }},
	{name: "fig12", fn: experiments.Fig12},
	{name: "fig13", fn: func(sc experiments.Scale) (*stats.Table, error) { return experiments.Fig13(sc, nil) }},
	{name: "fig14a", fn: experiments.Fig14a},
	{name: "fig14b", fn: experiments.Fig14b},
	{name: "fig15", fn: experiments.Fig15},
	{name: "fig16a", fn: experiments.Fig16a},
	{name: "fig16b", fn: experiments.Fig16b},
	{name: "fig16cd", fn: experiments.Fig16cd},
	{name: "splitdb", fn: experiments.SplitDB},
	{name: "l2variants", fn: experiments.L2Variants},
	{name: "latency", fn: experiments.Latency},
	{name: "serving", fn: experiments.ServingSweep},
	{name: "servedegrade", fn: experiments.ServingDegrade},
}

// writeCSV stores one experiment table under dir. The write is atomic: a
// crash (or a forced second-Ctrl-C exit) never leaves a truncated table.
func writeCSV(dir, name string, t *stats.Table) error {
	var buf bytes.Buffer
	if err := t.CSV(&buf); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(filepath.Join(dir, name+".csv"), buf.Bytes())
}

// benchRecord is the machine-readable perf capture for one experiment.
type benchRecord struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	Runs        uint64  `json:"runs"`
	Events      uint64  `json:"events"`
	Cycles      uint64  `json:"cycles"`
	// Analytic experiments (tab1/tab2) are closed-form models: they run
	// no simulation events, so their zero counts are expected and they
	// are excluded from the aggregate events/sec summary.
	Analytic     bool    `json:"analytic,omitempty"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// benchFile is the top-level schema of -benchjson output.
type benchFile struct {
	Scale       string        `json:"scale"`
	Jobs        int           `json:"jobs"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	TotalWallS  float64       `json:"total_wall_seconds"`
	TotalEvents uint64        `json:"total_events"`
	Experiments []benchRecord `json:"experiments"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		os.Exit(chaosMain(os.Args[2:]))
	}
	var (
		exp       = flag.String("exp", "", "comma-separated experiments to run (default: all)")
		scale     = flag.String("scale", "", "workload scale: full (paper-sized), medium, small")
		csvDir    = flag.String("csv", "", "also write each experiment's table as <dir>/<name>.csv")
		jobsN     = flag.Int("j", 0, "simulations to run concurrently (0 = one per CPU, 1 = sequential)")
		benchJSON = flag.String("benchjson", "", "write per-experiment perf records (wall-clock, events, events/sec) to this JSON file")
		metDir    = flag.String("metrics", "", "write each experiment's aggregated instrument metrics as <dir>/<name>.metrics.json")
		pprofCPU  = flag.String("pprof-cpu", "", "write a CPU profile of the whole run to this file")
		pprofMem  = flag.String("pprof-mem", "", "write a heap profile at the end of the run to this file")
		progress  = flag.Bool("progress", false, "print a periodic progress heartbeat to stderr")
		ckptDir   = flag.String("ckpt-dir", "", "persist every completed simulation to this directory so a rerun resumes instead of recomputing")
		auditOn   = flag.Bool("audit", false, "run the invariant auditor inside every simulation; violations fail the experiment")
		compare   = flag.Bool("compare", false, "benchdiff mode: ndpbench -compare old.json new.json prints per-experiment events/sec deltas and exits 1 on regression beyond -compare-threshold")
		compareTh = flag.Float64("compare-threshold", defaultRegressionThreshold, "relative events/sec drop treated as a regression by -compare (0.10 = 10%)")
		critpath  = flag.Bool("critpath", false, "trace causal flows inside every simulation and print a per-experiment critical-path bottleneck table")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: ndpbench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *compareTh))
	}
	// Simulations allocate mostly long-lived system state up front and run
	// near allocation-free after warm-up, so the default GC target (100%)
	// mostly re-marks the same live heap. Relaxing it trades transient
	// footprint for mutator throughput; GOGC set explicitly still wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	experiments.SetJobs(*jobsN)
	if *ckptDir != "" {
		experiments.SetCheckpointDir(*ckptDir)
	}
	if *auditOn {
		experiments.SetAuditEvery(1 << 14)
	}

	// Ctrl-C cancels the worker pool: no new simulations dispatch and
	// in-flight engines halt at their next progress checkpoint. A second
	// Ctrl-C force-exits even if a worker is wedged and the pool never
	// drains.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	experiments.HandleSignals(sigc,
		experiments.Cancel,
		func() { os.Exit(130) },
		func(n int) {
			if n == 1 {
				fmt.Fprintln(os.Stderr, "\nndpbench: interrupt — stopping worker pool (Ctrl-C again to force quit)")
			} else {
				fmt.Fprintln(os.Stderr, "\nndpbench: forced exit")
			}
		})

	if *pprofCPU != "" {
		f, err := os.Create(*pprofCPU)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndpbench: pprof-cpu: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ndpbench: pprof-cpu: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *progress {
		stop := startProgress()
		defer stop()
	}

	sc := experiments.Full
	scName := "full"
	switch *scale {
	case "", "full":
	case "medium":
		sc = experiments.Medium
		scName = "medium"
	case "small":
		sc = experiments.Small
		scName = "small"
	default:
		fmt.Fprintf(os.Stderr, "ndpbench: unknown scale %q\n", *scale)
		os.Exit(1)
	}
	want := map[string]bool{}
	if *exp != "" {
		for _, e := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}
	bench := benchFile{Scale: scName, Jobs: experiments.Jobs(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	ran := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		experiments.ResetCounters()
		if *metDir != "" {
			experiments.EnableMetrics()
		}
		if *critpath {
			experiments.EnableFlowTrace(0)
		}
		start := time.Now()
		t, err := e.fn(sc)
		if err != nil {
			if errors.Is(err, experiments.ErrCanceled) {
				fmt.Fprintln(os.Stderr, "ndpbench: canceled")
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "ndpbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		if *metDir != "" {
			if err := writeMetrics(*metDir, e.name, experiments.TakeMetrics()); err != nil {
				fmt.Fprintf(os.Stderr, "ndpbench: metrics %s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
		c := experiments.Counters()
		rec := benchRecord{
			Name: e.name, WallSeconds: wall,
			Runs: c.Runs, Events: c.Events, Cycles: c.Cycles,
			Analytic: e.analytic,
		}
		if wall > 0 && !e.analytic {
			rec.EventsPerSec = float64(c.Events) / wall
		}
		fmt.Println(t.Render())
		if *critpath {
			if rows := experiments.TakeCrit(); len(rows) > 0 {
				fmt.Println(experiments.CritTable(rows).Render())
			}
		}
		cached := ""
		if h := experiments.CacheHits(); h > 0 {
			cached = fmt.Sprintf(", %d resumed from checkpoint", h)
		}
		if c.Runs > 0 || cached != "" {
			fmt.Printf("(%s in %.1fs — %d runs%s, %d events, %.2fM events/sec)\n\n",
				e.name, wall, c.Runs, cached, c.Events, rec.EventsPerSec/1e6)
		} else {
			fmt.Printf("(%s in %.1fs)\n\n", e.name, wall)
		}
		bench.Experiments = append(bench.Experiments, rec)
		if !e.analytic {
			// Analytic tables run no events; keeping them out of the
			// totals keeps aggregate events/sec a pure simulation rate.
			bench.TotalWallS += wall
			bench.TotalEvents += c.Events
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.name, t); err != nil {
				fmt.Fprintf(os.Stderr, "ndpbench: csv %s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ndpbench: no experiment matched %q\n", *exp)
		os.Exit(1)
	}
	fmt.Printf("total: %.1fs wall, %d events, %.2fM events/sec aggregate (jobs=%d)\n",
		bench.TotalWallS, bench.TotalEvents, float64(bench.TotalEvents)/bench.TotalWallS/1e6, bench.Jobs)
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, &bench); err != nil {
			fmt.Fprintf(os.Stderr, "ndpbench: benchjson: %v\n", err)
			os.Exit(1)
		}
	}
	if *pprofMem != "" {
		if err := writeHeapProfile(*pprofMem); err != nil {
			fmt.Fprintf(os.Stderr, "ndpbench: pprof-mem: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeMetrics stores one experiment's aggregated instrument metrics,
// atomically.
func writeMetrics(dir, name string, reg *metrics.Registry) error {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(filepath.Join(dir, name+".metrics.json"), buf.Bytes())
}

// writeHeapProfile captures the end-of-run heap after a final GC.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProgress launches a heartbeat goroutine reporting the package-wide run
// counters every few seconds. The returned func stops it.
func startProgress() func() {
	stop := make(chan struct{})
	go func() {
		start := time.Now()
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c := experiments.Counters()
				elapsed := time.Since(start).Seconds()
				fmt.Fprintf(os.Stderr, "\rndpbench: %d runs, %dM events, %.2fM events/sec",
					c.Runs, c.Events>>20, float64(c.Events)/elapsed/1e6)
			}
		}
	}()
	return func() {
		close(stop)
		fmt.Fprintln(os.Stderr)
	}
}

// writeBenchJSON stores the perf capture atomically, creating parent
// directories: a partially-written capture would poison the perf-trajectory
// tooling that diffs these files across commits.
func writeBenchJSON(path string, b *benchFile) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(path, append(data, '\n'))
}

// defaultRegressionThreshold is the default -compare-threshold: the
// events/sec drop (relative to the old capture) past which runCompare flags
// an experiment as regressed and exits non-zero.
const defaultRegressionThreshold = 0.10

func readBenchJSON(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// runCompare diffs two -benchjson captures (benchdiff): per-experiment
// events/sec deltas plus the aggregate, returning 1 when any non-analytic
// experiment (or the aggregate) regressed by more than threshold. Analytic
// rows and experiments missing from either capture are reported but never
// counted as regressions.
func runCompare(oldPath, newPath string, threshold float64) int {
	oldB, err := readBenchJSON(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndpbench: compare: %v\n", err)
		return 2
	}
	newB, err := readBenchJSON(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndpbench: compare: %v\n", err)
		return 2
	}
	if oldB.Scale != newB.Scale || oldB.Jobs != newB.Jobs {
		fmt.Fprintf(os.Stderr, "ndpbench: compare: captures differ in shape (scale %q jobs %d vs scale %q jobs %d) — deltas may not be meaningful\n",
			oldB.Scale, oldB.Jobs, newB.Scale, newB.Jobs)
	}
	oldBy := map[string]benchRecord{}
	for _, r := range oldB.Experiments {
		oldBy[r.Name] = r
	}
	fmt.Printf("%-12s %14s %14s %9s\n", "experiment", "old ev/s", "new ev/s", "delta")
	var regressions []string
	for _, nr := range newB.Experiments {
		or, ok := oldBy[nr.Name]
		switch {
		case nr.Analytic || (or.EventsPerSec == 0 && nr.EventsPerSec == 0):
			fmt.Printf("%-12s %14s %14s %9s\n", nr.Name, "-", "-", "n/a")
		case !ok:
			fmt.Printf("%-12s %14s %14.0f %9s\n", nr.Name, "(new)", nr.EventsPerSec, "n/a")
		case or.EventsPerSec == 0:
			fmt.Printf("%-12s %14.0f %14.0f %9s\n", nr.Name, or.EventsPerSec, nr.EventsPerSec, "n/a")
		default:
			delta := nr.EventsPerSec/or.EventsPerSec - 1
			mark := ""
			if delta < -threshold {
				mark = "  REGRESSED"
				regressions = append(regressions, fmt.Sprintf("%s %+.1f%%", nr.Name, delta*100))
			}
			fmt.Printf("%-12s %14.0f %14.0f %+8.1f%%%s\n", nr.Name, or.EventsPerSec, nr.EventsPerSec, delta*100, mark)
		}
	}
	if oldB.TotalWallS > 0 && newB.TotalWallS > 0 {
		oldAgg := float64(oldB.TotalEvents) / oldB.TotalWallS
		newAgg := float64(newB.TotalEvents) / newB.TotalWallS
		if oldAgg > 0 {
			delta := newAgg/oldAgg - 1
			mark := ""
			if delta < -threshold {
				mark = "  REGRESSED"
				regressions = append(regressions, fmt.Sprintf("aggregate %+.1f%%", delta*100))
			}
			fmt.Printf("%-12s %14.0f %14.0f %+8.1f%%%s\n", "aggregate", oldAgg, newAgg, delta*100, mark)
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "ndpbench: compare: regression beyond %.0f%%: %s\n",
			threshold*100, strings.Join(regressions, ", "))
		return 1
	}
	return 0
}
