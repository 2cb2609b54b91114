package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	"ndpbridge/internal/fault"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/trace"
	"ndpbridge/internal/traffic"
	"ndpbridge/internal/workloads"
)

// observedRun is one simulation TestObservationIsReadOnly makes twice.
type observedRun struct {
	name  string
	cfg   config.Config
	app   string        // small workload; "" runs the serving app
	plan  string        // fault plan file; "" for none
	serve *traffic.Spec // serving spec when app is ""
}

// run executes r once, with every observer attached or none, and returns
// the result and the final state digest.
func (r observedRun) run(t *testing.T, observed bool) (*stats.Result, uint64) {
	t.Helper()
	sys, err := core.New(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var app core.App = core.ServingApp{}
	if r.app != "" {
		if app, err = workloads.NewSmall(r.app); err != nil {
			t.Fatal(err)
		}
	} else {
		src, err := traffic.NewSource(*r.serve, 64)
		if err != nil {
			t.Fatal(err)
		}
		sys.AttachTraffic(src)
	}
	if r.plan != "" {
		plan, err := fault.Load(r.plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AttachFaults(plan, r.cfg.Seed); err != nil {
			t.Fatal(err)
		}
	}
	if observed {
		sys.AttachMetrics(metrics.NewRegistry())
		rec := trace.New(0)
		rec.EnableFlows(0)
		sys.AttachTrace(rec)
		if err := sys.AttachAudit(512); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sys.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	return res, sys.StateDigest()
}

// TestObservationIsReadOnly: observers read the run and never drive it. A
// run with a metrics registry, a span-enabled trace recorder and the
// invariant auditor attached must return the same Result, event count
// included, and end in the same state digest as the bare run. Only the
// observation-only fields (latency summaries and the critical path) may
// differ. Covers every small-scale app × design, fault runs under a lossy
// fabric and a unit kill, and an open-loop serving run with a dark rank.
func TestObservationIsReadOnly(t *testing.T) {
	var runs []observedRun
	for _, app := range workloads.Names {
		for _, d := range []config.Design{config.DesignC, config.DesignB, config.DesignW,
			config.DesignO, config.DesignH, config.DesignR} {
			runs = append(runs, observedRun{
				name: fmt.Sprintf("%s/%v", app, d),
				cfg:  baseConfig(Small).WithDesign(d),
				app:  app,
			})
		}
	}
	units64, err := config.Default().WithUnits(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []string{"drop10", "kill"} {
		runs = append(runs, observedRun{
			name: "tree/O/" + plan,
			cfg:  units64,
			app:  "tree",
			plan: "../../examples/faults/" + plan + ".json",
		})
	}
	sp := traffic.DefaultSpec()
	sp.Rate = 60
	sp.Requests = 3000
	runs = append(runs, observedRun{
		name:  "serve/rankdark",
		cfg:   units64,
		plan:  "../../examples/faults/rankdark.json",
		serve: &sp,
	})

	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			bare, bareDigest := r.run(t, false)
			obs, obsDigest := r.run(t, true)
			obs.TaskLatency, obs.MsgLatency, obs.Crit = stats.Latency{}, stats.Latency{}, nil
			if !reflect.DeepEqual(bare, obs) {
				t.Errorf("observing changed the result (events %d bare, %d observed):\nbare     %+v\nobserved %+v",
					bare.Events, obs.Events, bare, obs)
			}
			if bareDigest != obsDigest {
				t.Errorf("observing changed the final state digest: %#x bare, %#x observed", bareDigest, obsDigest)
			}
		})
	}
}
