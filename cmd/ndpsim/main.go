// Command ndpsim runs one NDPBridge simulation: a single application on a
// single design, printing the measured result. It is the quickest way to
// poke at the simulator:
//
//	ndpsim -app tree -design O
//	ndpsim -app pr -design C -units 128
//	ndpsim -app bfs -design O -gxfer 64 -small
//
// With -serve it instead runs the open-loop serving workload: a kvstore-style
// GET stream with seeded arrivals, admission control, and an SLO report:
//
//	ndpsim -serve -rate 8 -slo 20000
//	ndpsim -serve -arrival burst -rate 4 -policy codel -faults examples/faults/rankdark.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	"ndpbridge/internal/fault"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/trace"
	"ndpbridge/internal/traffic"
	"ndpbridge/internal/workloads"
)

func main() {
	var (
		appName  = flag.String("app", "tree", "application: ll, ht, tree, spmv, bfs, sssp, pr, wcc, stencil")
		design   = flag.String("design", "O", "design: C, B, W, O, H, R (Table II)")
		units    = flag.Int("units", 0, "override NDP unit count (multiple of 64; 0 = Table I default 512)")
		gxfer    = flag.Uint64("gxfer", 0, "override G_xfer bytes (0 = default 256)")
		istate   = flag.Uint64("istate", 0, "override I_state cycles (0 = default 2000)")
		dq       = flag.Int("dq", 0, "DRAM chip DQ width: 4, 8 or 16 (0 = default 8)")
		trigger  = flag.String("trigger", "dynamic", "communication trigger: dynamic, imin, 2imin")
		l2       = flag.String("l2", "host", "level-2 transport: host, dimmlink, abcdimm")
		small    = flag.Bool("small", false, "use the small test-sized workload")
		split    = flag.Bool("splitdb", false, "model split DIMM buffers (chameleon-s)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		verbose  = flag.Bool("v", false, "print per-component detail")
		traceOut = flag.String("trace", "", "write a Chrome/Perfetto trace (activity events, causal spans and flow arrows) to this file")
		critOn   = flag.Bool("critpath", false, "print the critical-path attribution report")
		critOut  = flag.String("critpath-json", "", "write the critical-path report JSON to this file")
		traceCap = flag.Int("trace-cap", 0, "max retained trace events and causal spans (0 = default 2M each)")
		heatmap  = flag.Bool("heatmap", false, "print a per-unit utilization heatmap")
		metOut   = flag.String("metrics", "", "write instrument metrics (counters, histograms, sampled series) JSON to this file")
		progress = flag.Bool("progress", false, "print a progress heartbeat to stderr while simulating")
		faultsIn = flag.String("faults", "", "JSON fault-injection plan to apply (see examples/faults/)")
		fSeed    = flag.Uint64("fault-seed", 0, "fault-schedule seed (0 = derive from -seed)")
		ckptOut  = flag.String("ckpt", "", "write crash-consistent checkpoints to this file; SIGINT/SIGTERM snapshots at the next barrier and exits")
		ckptEvr  = flag.Uint64("ckpt-every", 0, "cycles between periodic checkpoints (0 = only on interrupt)")
		resume   = flag.String("resume", "", "resume from a checkpoint file (replay-verified; supersedes workload/config flags)")
		auditOn  = flag.Bool("audit", false, "run the invariant auditor; conservation violations abort the run")

		serveOn  = flag.Bool("serve", false, "run the open-loop serving workload instead of -app")
		arrival  = flag.String("arrival", "poisson", "serving arrival process: poisson, burst, diurnal")
		rate     = flag.Float64("rate", 2, "serving offered load in requests per 1000 cycles")
		requests = flag.Uint64("requests", 2000, "serving arrivals to generate")
		queueCap = flag.Int("queue", 64, "serving admission queue depth")
		policy   = flag.String("policy", "drop-newest", "serving shed policy: drop-newest, drop-oldest, codel")
		sloP99   = flag.Uint64("slo", 20000, "serving p99 latency target in cycles")
		window   = flag.Uint64("window", 0, "serving degradation-curve window in cycles (0 = no windows)")
	)
	flag.Parse()

	cfg := config.Default()
	d, err := config.ParseDesign(*design)
	fatalIf(err)
	cfg = cfg.WithDesign(d)
	if *units > 0 {
		cfg, err = cfg.WithUnits(*units)
		fatalIf(err)
	}
	if *dq > 0 {
		cfg, err = cfg.WithDQWidth(*dq)
		fatalIf(err)
	}
	if *gxfer > 0 {
		cfg.GXfer = *gxfer
	}
	if *istate > 0 {
		cfg.IState = *istate
	}
	switch *trigger {
	case "dynamic":
		cfg.Trigger = config.TriggerDynamic
	case "imin":
		cfg.Trigger = config.TriggerFixedIMin
	case "2imin":
		cfg.Trigger = config.TriggerFixed2IMin
	default:
		fatalIf(fmt.Errorf("unknown trigger %q", *trigger))
	}
	switch *l2 {
	case "host":
		cfg.Level2 = config.L2Host
	case "dimmlink":
		cfg.Level2 = config.L2DIMMLink
	case "abcdimm":
		cfg.Level2 = config.L2ABCDIMM
	default:
		fatalIf(fmt.Errorf("unknown level-2 transport %q", *l2))
	}
	cfg.SplitDIMMBuffer = *split
	cfg.Seed = *seed

	// The serving spec is built from flags; a resumed serving checkpoint
	// supersedes it below (the label carries the exact spec).
	var serveSpec *traffic.Spec
	if *serveOn {
		sp := traffic.DefaultSpec()
		sp.Arrival = *arrival
		sp.Rate = *rate
		sp.Requests = *requests
		sp.Seed = *seed
		sp.QueueCap = *queueCap
		sp.Policy = *policy
		sp.SLOP99 = *sloP99
		sp.Window = *window
		fatalIf(sp.Validate())
		serveSpec = &sp
	}

	// A checkpoint supersedes the workload and config flags: the run must
	// be rebuilt exactly as recorded or the replay-verify marker check
	// rejects it.
	var resumeCk *core.Checkpoint
	if *resume != "" {
		resumeCk, err = core.ReadCheckpoint(*resume)
		fatalIf(err)
		fatalIf(json.Unmarshal(resumeCk.CfgJSON, &cfg))
		if label, isServe := strings.CutPrefix(resumeCk.App, "serve:"); isServe {
			sp, err := traffic.ParseSpec(label)
			fatalIf(err)
			serveSpec = &sp
			fmt.Printf("resuming serving run from %s: epoch %d, cycle %d\n",
				*resume, resumeCk.Epoch, resumeCk.Cycle)
		} else {
			serveSpec = nil
			name, sized, ok := strings.Cut(resumeCk.App, "@")
			if !ok {
				fatalIf(fmt.Errorf("checkpoint %s: malformed app label %q", *resume, resumeCk.App))
			}
			*appName, *small = name, sized == "small"
			fmt.Printf("resuming %s (%s workload) from %s: epoch %d, cycle %d\n",
				name, sized, *resume, resumeCk.Epoch, resumeCk.Cycle)
		}
	}

	var app core.App
	if serveSpec != nil {
		app = core.ServingApp{}
	} else if *small {
		app, err = workloads.NewSmall(*appName)
		fatalIf(err)
	} else {
		app, err = workloads.New(*appName)
		fatalIf(err)
	}

	sys, err := core.New(cfg)
	fatalIf(err)
	if serveSpec != nil {
		src, err := traffic.NewSource(*serveSpec, 64)
		fatalIf(err)
		sys.AttachTraffic(src)
	}
	switch {
	case resumeCk != nil:
		plan, err := resumeCk.Plan()
		fatalIf(err)
		if plan != nil {
			fatalIf(sys.AttachFaults(plan, resumeCk.FaultSeed))
		}
		sys.VerifyResume(resumeCk)
	case *faultsIn != "":
		plan, err := fault.Load(*faultsIn)
		fatalIf(err)
		seed := *fSeed
		if seed == 0 {
			seed = cfg.Seed
		}
		fatalIf(sys.AttachFaults(plan, seed))
	}
	if *auditOn {
		fatalIf(sys.AttachAudit(0))
	}
	if *ckptOut != "" {
		if serveSpec != nil {
			sys.SetCheckpointApp("serve:" + serveSpec.Label())
		} else {
			sized := "full"
			if *small {
				sized = "small"
			}
			sys.SetCheckpointApp(*appName + "@" + sized)
		}
		sys.EnableCheckpoints(*ckptOut, *ckptEvr)
		// First signal: snapshot at the next barrier and stop cleanly.
		// Second signal: force exit (the run may be far from a barrier).
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "\nndpsim: interrupt — writing checkpoint at next barrier (^C again to force exit)")
			sys.RequestCheckpoint()
			<-sigc
			fmt.Fprintln(os.Stderr, "\nndpsim: forced exit")
			os.Exit(130)
		}()
	}
	var rec *trace.Recorder
	flows := *traceOut != "" || *critOn || *critOut != ""
	if *heatmap || flows {
		rec = trace.New(*traceCap)
		if flows {
			rec.EnableFlows(*traceCap)
		}
		sys.AttachTrace(rec)
	}
	var reg *metrics.Registry
	if *metOut != "" || *verbose {
		reg = metrics.NewRegistry()
		sys.AttachMetrics(reg)
	}
	if *progress {
		startHeartbeat(sys)
	}
	r, err := sys.Run(app)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if errors.Is(err, core.ErrInterrupted) {
		fmt.Printf("interrupted; checkpoint written to %s — resume with: ndpsim -resume %s\n", *ckptOut, *ckptOut)
		os.Exit(130)
	}
	fatalIf(err)
	if resumeCk != nil && sys.ResumeVerified() {
		fmt.Printf("resume verified at epoch %d (cycle %d, state digest %#x)\n",
			resumeCk.Epoch, resumeCk.Cycle, resumeCk.Digest)
	}

	fmt.Println(r)
	if rec != nil {
		// Dropped counts surface capped traces: a report built from a
		// truncated recording should say so, not pass as complete.
		fmt.Printf("trace: %d events retained (%d dropped)", rec.Len(), rec.Dropped())
		if rec.FlowsEnabled() {
			fmt.Printf(", %d spans retained (%d dropped)", rec.SpanCount(), rec.DroppedSpans())
		}
		fmt.Println()
	}
	if *verbose {
		printDetail(r)
	}
	if *heatmap {
		fmt.Println("\nper-unit utilization (unit rows, time →):")
		fmt.Print(rec.Heatmap(r.Makespan, 64))
	}
	if *traceOut != "" {
		// Render to memory, then write atomically: a crash or full disk
		// mid-write never leaves a truncated (unparseable) trace behind.
		var buf bytes.Buffer
		fatalIf(rec.FlowTrace(&buf))
		fatalIf(checkpoint.WriteFileAtomic(*traceOut, buf.Bytes()))
		fmt.Printf("wrote %d trace events and %d causal spans to %s\n", rec.Len(), rec.SpanCount(), *traceOut)
	}
	if *critOn || *critOut != "" {
		rep := rec.CritPath(r.Makespan)
		if *critOn {
			fmt.Println()
			fmt.Print(rep.Render())
		}
		if *critOut != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			fatalIf(err)
			fatalIf(checkpoint.WriteFileAtomic(*critOut, append(data, '\n')))
			fmt.Printf("wrote critical-path report (%d epochs) to %s\n", len(rep.Epochs), *critOut)
		}
	}
	if *metOut != "" {
		var buf bytes.Buffer
		fatalIf(reg.WriteJSON(&buf))
		fatalIf(checkpoint.WriteFileAtomic(*metOut, buf.Bytes()))
		fmt.Printf("wrote metrics (%d counters, %d histograms, %d series) to %s\n",
			len(reg.CounterNames()), len(reg.HistogramNames()), len(reg.SeriesNames()), *metOut)
	}
}

// startHeartbeat installs an engine progress hook that reports simulation
// speed, the current simulated cycle, and — since the only a-priori bound on
// a run is its event budget — how long until that budget would be exhausted
// at the current speed.
func startHeartbeat(sys *core.System) {
	const every = 1 << 20 // events between reports
	start := time.Now()
	eng := sys.Engine()
	budget := sys.MaxEvents()
	eng.SetProgress(every, func(now uint64, processed uint64) {
		elapsed := time.Since(start).Seconds()
		if elapsed <= 0 {
			return
		}
		eps := float64(processed) / elapsed
		line := fmt.Sprintf("\rndpsim: %dM events, cycle %d, %.2fM events/sec",
			processed>>20, now, eps/1e6)
		if budget > processed && eps > 0 {
			line += fmt.Sprintf(", budget ETA %s",
				(time.Duration(float64(budget-processed)/eps) * time.Second).Round(time.Second))
		}
		fmt.Fprint(os.Stderr, line)
	})
}

func printDetail(r *stats.Result) {
	ms := func(c uint64) float64 { return float64(c) * 2.5e-6 } // cycles → ms at 400 MHz
	fmt.Printf("  makespan:        %12d cycles (%.3f ms)\n", r.Makespan, ms(r.Makespan))
	fmt.Printf("  max busy:        %12d cycles (wait %.1f%%)\n", r.MaxBusy, 100*r.WaitFrac())
	fmt.Printf("  avg busy:        %12.0f cycles (avg/max %.1f%%)\n", r.AvgBusy, 100*r.AvgFrac())
	fmt.Printf("  tasks:           %12d executed, %d spawned, %d bounces\n", r.TasksExecuted, r.TasksSpawned, r.Bounces)
	fmt.Printf("  messages:        %12d delivered\n", r.MsgsDelivered)
	fmt.Printf("  traffic:         %12d B intra-rank, %d B cross-rank, %d B host\n",
		r.IntraRankBytes, r.CrossRankBytes, r.HostBytes)
	fmt.Printf("  load balancing:  %12d rounds, %d blocks migrated, %d returned\n",
		r.LBRounds, r.BlocksMigrated, r.BlocksReturned)
	fmt.Printf("  gather rounds:   %12d\n", r.GatherRounds)
	if !r.TaskLatency.IsZero() {
		fmt.Printf("  task latency:    %12s cycles (p50/p90/p99/max)\n", r.TaskLatency)
	}
	if !r.MsgLatency.IsZero() {
		fmt.Printf("  msg latency:     %12s cycles (p50/p90/p99/max)\n", r.MsgLatency)
	}
	if v := r.Serving; v != nil {
		fmt.Printf("  serving:         %12d offered, %d completed, %d shed (newest %d, oldest %d, deadline %d)\n",
			v.Offered, v.Completed, v.ShedTotal(), v.ShedNewest, v.ShedOldest, v.ShedDeadline)
		fmt.Printf("  serving latency: p50/p90/p99/p999/max %d/%d/%d/%d/%d cycles, goodput %.3f/kc of %.3f/kc offered\n",
			v.P50, v.P90, v.P99, v.P999, v.MaxLat, v.GoodputKC, v.OfferedKC)
	}
	e := r.Energy
	fmt.Printf("  energy (mJ):     core+SRAM %.2f, local DRAM %.2f, comm %.2f, static %.2f, total %.2f\n",
		e.CoreSRAM, e.LocalDRAM, e.CommDRAM, e.Static, e.Total())
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ndpsim:", err)
		os.Exit(1)
	}
}
