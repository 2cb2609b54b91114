package core_test

import (
	"testing"

	"ndpbridge/internal/config"
	"ndpbridge/internal/core"
	"ndpbridge/internal/fault"
	"ndpbridge/internal/trace"
	"ndpbridge/internal/workloads"
)

// faultedSmall builds a 64-unit design-O system running the small dataset
// of app under the fault plan at path, seeded as ndpsim seeds it.
func faultedSmall(t *testing.T, app, path string) (*core.System, core.App) {
	t.Helper()
	plan, err := fault.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Default().WithDesign(config.DesignO).WithUnits(64)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachFaults(plan, cfg.Seed); err != nil {
		t.Fatal(err)
	}
	a, err := workloads.NewSmall(app)
	if err != nil {
		t.Fatal(err)
	}
	return sys, a
}

// TestKillPlanNoLendLivelock: after a kill, the buddy that adopted the dead
// unit's range must not lend an adopted block. Its isLent bit would be the
// bit of the buddy's own block at the same bank offset, which nothing clears,
// so every task on that block bounced between the buddy and its bridge
// forever; each bounce is a delivery, so the watchdog never tripped. The
// event cap turns such a livelock into a failure instead of a hang.
func TestKillPlanNoLendLivelock(t *testing.T) {
	for _, app := range []string{"pr", "ll", "wcc"} {
		t.Run(app, func(t *testing.T) {
			sys, a := faultedSmall(t, app, "../../examples/faults/kill.json")
			eng := sys.Engine()
			eng.SetProgress(1<<20, func(_ uint64, processed uint64) {
				if processed > 5_000_000 {
					eng.Stop()
				}
			})
			r, err := sys.Run(a)
			if err != nil {
				t.Fatal(err)
			}
			if r.TasksExecuted != r.TasksSpawned {
				t.Errorf("executed %d of %d spawned tasks", r.TasksExecuted, r.TasksSpawned)
			}
		})
	}
}

// TestRetransmissionWaitsReachCriticalPath: a resent message's next leg
// chains from its retransmission span, so the time lost to dropped messages
// is billed to retry-backoff instead of to the fabric leg after the retry.
func TestRetransmissionWaitsReachCriticalPath(t *testing.T) {
	sys, a := faultedSmall(t, "tree", "../../examples/faults/drop10.json")
	rec := trace.New(0)
	rec.EnableFlows(0)
	sys.AttachTrace(rec)
	r, err := sys.Run(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults == nil || r.Faults.Retries == 0 {
		t.Fatal("drop10 caused no retransmissions; the case no longer exercises retries")
	}
	if r.Crit == nil || r.Crit.Retry == 0 {
		t.Errorf("critical path bills no retry-backoff despite %d retries: %+v", r.Faults.Retries, r.Crit)
	}
}
