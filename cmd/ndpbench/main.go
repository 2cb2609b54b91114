// Command ndpbench regenerates the NDPBridge paper's tables and figures
// (Section VIII) on the simulator:
//
//	ndpbench                  # every experiment at full scale (slow)
//	ndpbench -exp fig10       # one experiment
//	ndpbench -exp fig14a -scale small
//	ndpbench -j 8             # eight simulations in flight at once
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
// events/sec. The committed performance benchmark is perfbench (see
// perfbench/README.md).
package main

import (
	"bytes"
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

func main() {
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		os.Exit(chaosMain(os.Args[2:]))
	}
	var (
		exp      = flag.String("exp", "", "comma-separated experiments to run (default: all)")
		scale    = flag.String("scale", "", "workload scale: full (paper-sized), medium, small")
		csvDir   = flag.String("csv", "", "also write each experiment's table as <dir>/<name>.csv")
		jobsN    = flag.Int("j", 0, "simulations to run concurrently (0 = one per CPU, 1 = sequential)")
		metDir   = flag.String("metrics", "", "write each experiment's aggregated instrument metrics as <dir>/<name>.metrics.json")
		pprofCPU = flag.String("pprof-cpu", "", "write a CPU profile of the whole run to this file")
		pprofMem = flag.String("pprof-mem", "", "write a heap profile at the end of the run to this file")
		progress = flag.Bool("progress", false, "print a periodic progress heartbeat to stderr")
		ckptDir  = flag.String("ckpt-dir", "", "persist every completed simulation to this directory so a rerun resumes instead of recomputing")
		auditOn  = flag.Bool("audit", false, "run the invariant auditor inside every simulation; violations fail the experiment")
		critpath = flag.Bool("critpath", false, "trace causal flows inside every simulation and print a per-experiment critical-path bottleneck table")
	)
	flag.Parse()
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
		experiments.EnableAudit(1 << 14)
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
	switch *scale {
	case "", "full":
	case "medium":
		sc = experiments.Medium
	case "small":
		sc = experiments.Small
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
	var totalWall float64
	var totalEvents uint64
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
		var eps float64
		if wall > 0 && !e.analytic {
			eps = float64(c.Events) / wall
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
				e.name, wall, c.Runs, cached, c.Events, eps/1e6)
		} else {
			fmt.Printf("(%s in %.1fs)\n\n", e.name, wall)
		}
		if !e.analytic {
			// Analytic tables run no events; keeping them out of the
			// totals keeps aggregate events/sec a pure simulation rate.
			totalWall += wall
			totalEvents += c.Events
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
		totalWall, totalEvents, float64(totalEvents)/totalWall/1e6, experiments.Jobs())
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
