package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"

	"ndpbridge/internal/core"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/trace"
)

// tracedRun produces the per-layer metrics. It makes two passes in one
// process: a reference pass under the CPU profiler (harness spans and
// module self time) and an observed pass with a metrics registry and flow
// tracing attached to every system (exact counts, critical-path shares and
// the cost of observation), then runs the microbenchmarks. Its failures and
// attempts cover both passes.
func (r runner) tracedRun() (report, error) {
	gold, err := r.goldens()
	if err != nil {
		return report{}, err
	}
	rep := report{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return report{}, fmt.Errorf("cpu profile: %w", err)
	}
	ref := r.runPass(gold, nil)
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	var cpu float64
	for _, s := range samples {
		cpu += float64(s.cpuNS) / 1e9
	}
	put("cpu.profiled_s", cpu, "s")
	for l, v := range foldSelf(samples) {
		put(l+".self_s", v, "s")
	}
	put("core.new_s", ref.newSys.Seconds(), "s")
	put("workloads.prepare_s", ref.prepare.Seconds(), "s")
	put("workloads.seed_s", ref.seed.Seconds(), "s")
	put("wall.reference_s", ref.wall.Seconds(), "s")

	obs := &observe{}
	traced := r.runPass(gold, obs)
	put("trace.overhead_pct", 100*(traced.wall.Seconds()-ref.wall.Seconds())/ref.wall.Seconds(), "%")
	put("trace.live_heap_mb", float64(traced.liveB)/(1<<20), "MB")
	put("trace.spans", float64(obs.spans), "count")
	put("trace.dropped_spans", float64(obs.dropped), "count")
	obs.putCounts(put, ref.results)

	for _, m := range microbenchmarks {
		put(m.name, m.run(), "ns")
	}

	for _, p := range []*pass{ref, traced} {
		logFailures(p)
		rep.Attempted += len(r.wl.cells)
		rep.Failed += len(p.failures)
	}
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: traced run, reference pass %.2fs, observed pass %.2fs\n",
		r.wl.name, r.seed, ref.wall.Seconds(), traced.wall.Seconds())
	return rep, nil
}

// observe attaches a fresh metrics registry and a span-only flow recorder
// to each system and sums what they saw.
type observe struct {
	reg *metrics.Registry

	spans         uint64
	dropped       uint64 // spans past the recorder's cap: crit shares then cover a prefix
	mailboxStalls uint64
	wastedGathers uint64
	crit          [8]uint64 // cycles per critNames category
}

var critNames = [8]string{"bank", "queue", "gather", "bridge", "lb", "retry", "host", "slack"}

func (o *observe) attach(sys *core.System) {
	o.reg = metrics.NewRegistry()
	sys.AttachMetrics(o.reg)
	// Activity events are not needed for the critical path: cap them at one
	// so only spans (default cap) take memory.
	rec := trace.New(1)
	rec.EnableFlows(0)
	sys.AttachTrace(rec)
}

func (o *observe) collect(sys *core.System, res *stats.Result) {
	o.spans += uint64(sys.Trace().SpanCount())
	o.dropped += sys.Trace().DroppedSpans()
	if c := o.reg.FindCounter("mailbox_stalls"); c != nil {
		o.mailboxStalls += c.Value()
	}
	if c := o.reg.FindCounter("wasted_gathers"); c != nil {
		o.wastedGathers += c.Value()
	}
	if c := res.Crit; c != nil {
		for i, v := range []uint64{c.BankBusy, c.TaskQueue, c.GatherBatch, c.BridgeQueue,
			c.LBMigration, c.Retry, c.HostRT, c.Slack} {
			o.crit[i] += v
		}
	}
	o.reg = nil
}

// putCounts reports the simulated counts of the reference pass, summed over
// cells, with the observed pass's registry counters and critical-path
// shares. They are exact: any change flags a change to the model.
func (o *observe) putCounts(put func(string, float64, string), results []*stats.Result) {
	var t stats.Result
	for _, r := range results {
		t.Events += r.Events
		t.Makespan += r.Makespan
		t.TasksExecuted += r.TasksExecuted
		t.Bounces += r.Bounces
		t.MsgsDelivered += r.MsgsDelivered
		t.GatherRounds += r.GatherRounds
		t.IntraRankBytes += r.IntraRankBytes
		t.CrossRankBytes += r.CrossRankBytes
		t.HostBytes += r.HostBytes
		t.LBRounds += r.LBRounds
		t.BlocksMigrated += r.BlocksMigrated
		t.BlocksReturned += r.BlocksReturned
	}
	const mb = 1 << 20
	put("sim.events", float64(t.Events), "count")
	put("sim.makespan_cycles", float64(t.Makespan), "cycles")
	put("ndpunit.tasks", float64(t.TasksExecuted), "count")
	put("ndpunit.bounces", float64(t.Bounces), "count")
	put("ndpunit.mailbox_stalls", float64(o.mailboxStalls), "count")
	put("msg.delivered", float64(t.MsgsDelivered), "count")
	put("bridge.gather_rounds", float64(t.GatherRounds), "count")
	put("bridge.wasted_gathers", float64(o.wastedGathers), "count")
	put("bridge.intra_rank_mb", float64(t.IntraRankBytes)/mb, "MB")
	put("bridge.cross_rank_mb", float64(t.CrossRankBytes)/mb, "MB")
	put("lb.rounds", float64(t.LBRounds), "count")
	put("lb.blocks_migrated", float64(t.BlocksMigrated), "count")
	put("lb.blocks_returned", float64(t.BlocksReturned), "count")
	put("host.mb", float64(t.HostBytes)/mb, "MB")

	var total uint64
	for _, v := range o.crit {
		total += v
	}
	for i, n := range critNames {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(o.crit[i]) / float64(total)
		}
		put("crit."+n+"_pct", pct, "%")
	}
}
