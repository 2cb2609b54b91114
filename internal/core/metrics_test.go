package core

import (
	"slices"
	"testing"

	"ndpbridge/internal/config"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/trace"
)

// TestMetricsEndToEnd runs a message-heavy workload with a registry attached
// and checks that every layer of the stack produced observations: task and
// message latency histograms, gather batches, the epoch histogram, the
// cycle-sampled gauge series, and the percentile summaries in the Result.
func TestMetricsEndToEnd(t *testing.T) {
	sys, err := New(testCfg(config.DesignO))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	sys.AttachMetrics(reg)
	if sys.Metrics() != reg {
		t.Fatal("Metrics() does not return the attached registry")
	}
	r, err := sys.Run(&pingPong{hops: 40})
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"task_latency_cycles", "task_exec_cycles", "msg_latency_cycles", "gather_batch_bytes", "epoch_cycles"} {
		h := reg.FindHistogram(name)
		if h.Count() == 0 {
			t.Errorf("histogram %s has no observations", name)
		}
		if h.Max() < h.Min() {
			t.Errorf("histogram %s: max %d < min %d", name, h.Max(), h.Min())
		}
	}
	if got := reg.FindHistogram("task_latency_cycles").Count(); got != 40 {
		t.Errorf("task_latency_cycles count = %d, want 40 (one per hop)", got)
	}
	if r.TaskLatency.Max == 0 {
		t.Error("Result.TaskLatency not populated")
	}
	if r.MsgLatency.Max == 0 {
		t.Error("Result.MsgLatency not populated")
	}
	if r.TaskLatency.P50 > r.TaskLatency.P99 || r.TaskLatency.P99 > r.TaskLatency.Max {
		t.Errorf("task latency percentiles not monotonic: %+v", r.TaskLatency)
	}

	// The run spans many I_state periods, so the sampler must have fired.
	series := reg.SeriesNames()
	if len(series) == 0 {
		t.Fatal("no sampled series")
	}
	for _, name := range series {
		s := reg.SeriesByName(name)
		if s.Len() == 0 {
			t.Errorf("series %s is empty", name)
		}
		for i := 1; i < s.Len(); i++ {
			if s.Cycles[i] <= s.Cycles[i-1] {
				t.Errorf("series %s cycles not increasing at %d", name, i)
			}
		}
	}
	if reg.SeriesByName("mailbox_used_total") == nil {
		t.Error("mailbox_used_total series missing")
	}
}

// TestMetricsOffIsNoop: without AttachMetrics the same run works and the
// Result's latency summaries stay zero.
func TestMetricsOffIsNoop(t *testing.T) {
	sys, err := New(testCfg(config.DesignO))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run(&pingPong{hops: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !r.TaskLatency.IsZero() || !r.MsgLatency.IsZero() {
		t.Errorf("latency summaries populated without metrics: %+v %+v", r.TaskLatency, r.MsgLatency)
	}
}

// TestMetricsDesignH exercises the host-executor instrumentation path.
func TestMetricsDesignH(t *testing.T) {
	sys, err := New(testCfg(config.DesignH))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	sys.AttachMetrics(reg)
	if _, err := sys.Run(&pingPong{hops: 20}); err != nil {
		t.Fatal(err)
	}
	if got := reg.FindHistogram("task_latency_cycles").Count(); got != 20 {
		t.Errorf("task_latency_cycles count = %d, want 20", got)
	}
	if reg.FindHistogram("task_exec_cycles").Count() != 20 {
		t.Error("task_exec_cycles not populated on design H")
	}
}

// TestCountersMatchStats: the registry's counters are exported from the
// component stats at the end of Run, so each equals the stats sum that
// counts the same event, and each design exports the counter set of the
// components it has: unit counters wherever there are units, bridge
// counters only on the bridge designs.
func TestCountersMatchStats(t *testing.T) {
	unitNames := []string{"blocks_borrowed", "blocks_returned", "bounces", "mailbox_stalls"}
	bridgeNames := []string{"blocks_borrowed", "blocks_returned", "bounces", "l2_lb_rounds",
		"lb_rounds", "mailbox_stalls", "wasted_gathers"}
	cases := []struct {
		name    string
		d       config.Design
		mutate  func(*config.Config)
		names   []string
		nonzero string // a counter this case must drive above zero
	}{
		{name: "C", d: config.DesignC, names: unitNames},
		{name: "R", d: config.DesignR, names: unitNames},
		{name: "H", d: config.DesignH},
		{name: "O", d: config.DesignO, names: bridgeNames, nonzero: "l2_lb_rounds"},
		{name: "B fixed trigger", d: config.DesignB, names: bridgeNames, nonzero: "wasted_gathers",
			mutate: func(c *config.Config) { c.Trigger = config.TriggerFixedIMin }},
		{name: "W small mailbox", d: config.DesignW, names: bridgeNames, nonzero: "mailbox_stalls",
			mutate: func(c *config.Config) { c.Buffers.MailboxBytes = 4 << 10 }},
		{name: "W small borrowed table", d: config.DesignW, names: bridgeNames, nonzero: "blocks_returned",
			mutate: func(c *config.Config) {
				c.Metadata.UnitBorrowedEntries = 8
				c.Metadata.UnitBorrowedWays = 2
				c.Metadata.BorrowedRegionBytes = 4 << 10
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg(tc.d)
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			sys.AttachMetrics(reg)
			r, err := sys.Run(&spill{epochs: 4, tasks: 300, chain: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got := reg.CounterNames(); !slices.Equal(got, tc.names) {
				t.Fatalf("counters %v, want %v", got, tc.names)
			}
			if tc.names == nil {
				return
			}
			var stalls uint64
			for _, u := range r.Units {
				stalls += u.Stalls
			}
			// A returned block is counted in Returns twice: by the borrower
			// sending it home and by the home taking it back.
			if r.BlocksReturned%2 != 0 {
				t.Errorf("BlocksReturned = %d, want an even count", r.BlocksReturned)
			}
			want := map[string]uint64{
				"bounces":         r.Bounces,
				"blocks_borrowed": r.BlocksMigrated,
				"blocks_returned": r.BlocksReturned / 2,
				"mailbox_stalls":  stalls,
			}
			if len(sys.bridges) > 0 {
				var lb, wasted uint64
				for _, b := range sys.bridges {
					lb += b.Stats().LBRounds
					wasted += b.Stats().WastedGathers
				}
				want["lb_rounds"] = lb
				want["l2_lb_rounds"] = sys.l2.Stats().LBRounds
				want["wasted_gathers"] = wasted
				if lb+want["l2_lb_rounds"] != r.LBRounds {
					t.Errorf("level-1 %d + level-2 %d LB rounds != Result.LBRounds %d", lb, want["l2_lb_rounds"], r.LBRounds)
				}
			}
			for name, w := range want {
				if got := reg.FindCounter(name).Value(); got != w {
					t.Errorf("%s = %d, stats say %d", name, got, w)
				}
			}
			if tc.nonzero != "" && reg.FindCounter(tc.nonzero).Value() == 0 {
				t.Errorf("%s stayed zero; the case no longer exercises it", tc.nonzero)
			}
		})
	}
}

// TestHistogramNamesPerDesign pins each design's histogram name set, as the
// components registered it when each bound its own latency histograms. The
// trace recorder now binds them when Run starts, so a metrics-only run and
// runs with a recorder attached before or after the registry must still
// register msg_latency_cycles only with NDP units (not H), and the
// per-category wait histograms only when the recorder keeps events or spans.
func TestHistogramNamesPerDesign(t *testing.T) {
	tasks := []string{"epoch_cycles", "task_exec_cycles", "task_latency_cycles"}
	host := []string{"host_batch_bytes", "host_batch_msgs", "msg_latency_cycles"}
	bridges := []string{"gather_batch_bytes", "l2_batch_bytes", "l2_lb_budget_workload",
		"lb_budget_workload", "lb_child_wqueue", "msg_latency_cycles", "scatter_batch_bytes"}
	wait := []string{"wait_bank_busy_cycles", "wait_bridge_queue_cycles", "wait_gather_batch_cycles",
		"wait_host_roundtrip_cycles", "wait_lb_migration_cycles", "wait_retry_backoff_cycles",
		"wait_slack_cycles", "wait_task_queue_cycles"}
	designs := []struct {
		d     config.Design
		names []string
	}{
		{config.DesignC, host}, {config.DesignB, bridges}, {config.DesignW, bridges},
		{config.DesignO, bridges}, {config.DesignH, nil}, {config.DesignR, host},
	}
	modes := []struct {
		name       string
		rec        func() *trace.Recorder // nil: metrics only
		traceFirst bool
	}{
		{name: "metrics only"},
		{name: "events", rec: func() *trace.Recorder { return trace.New(0) }},
		{name: "flows, trace attached first", traceFirst: true,
			rec: func() *trace.Recorder { r := trace.New(0); r.EnableFlows(0); return r }},
	}
	for _, dc := range designs {
		for _, m := range modes {
			t.Run(dc.d.String()+"/"+m.name, func(t *testing.T) {
				sys, err := New(testCfg(dc.d))
				if err != nil {
					t.Fatal(err)
				}
				reg := metrics.NewRegistry()
				if m.rec != nil && m.traceFirst {
					sys.AttachTrace(m.rec())
				}
				sys.AttachMetrics(reg)
				if m.rec != nil && !m.traceFirst {
					sys.AttachTrace(m.rec())
				}
				if _, err := sys.Run(&spill{epochs: 2, tasks: 100, chain: 2}); err != nil {
					t.Fatal(err)
				}
				want := slices.Concat(tasks, dc.names)
				if m.rec != nil {
					want = slices.Concat(want, wait)
				}
				slices.Sort(want)
				if got := reg.HistogramNames(); !slices.Equal(got, want) {
					t.Errorf("histograms %q, want %q", got, want)
				}
			})
		}
	}
}
