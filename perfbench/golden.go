package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ndpbridge/internal/stats"
)

// goldenFS holds one golden file per workload: every cell's simulated
// outcome.
//
//go:embed golden/*.json
var goldenFS embed.FS

// cellGolden is the checked part of a cell's stats.Result: makespan, busy
// times, events, task and message counts, traffic and load-balancing
// counters, and energy.
type cellGolden struct {
	App            string
	Design         string
	Makespan       uint64
	MaxBusy        uint64
	AvgBusy        float64
	Events         uint64
	TasksExecuted  uint64
	TasksSpawned   uint64
	MsgsDelivered  uint64
	IntraRankBytes uint64
	CrossRankBytes uint64
	HostBytes      uint64
	BlocksMigrated uint64
	BlocksReturned uint64
	Bounces        uint64
	LBRounds       uint64
	GatherRounds   uint64
	Energy         stats.Energy
}

func goldenOf(r *stats.Result) cellGolden {
	return cellGolden{
		App: r.App, Design: r.Design,
		Makespan: r.Makespan, MaxBusy: r.MaxBusy, AvgBusy: r.AvgBusy,
		Events: r.Events, TasksExecuted: r.TasksExecuted, TasksSpawned: r.TasksSpawned,
		MsgsDelivered:  r.MsgsDelivered,
		IntraRankBytes: r.IntraRankBytes, CrossRankBytes: r.CrossRankBytes, HostBytes: r.HostBytes,
		BlocksMigrated: r.BlocksMigrated, BlocksReturned: r.BlocksReturned, Bounces: r.Bounces,
		LBRounds: r.LBRounds, GatherRounds: r.GatherRounds,
		Energy: r.Energy,
	}
}

func cellKey(app, design string) string { return app + "/" + design }

func loadGolden(workload string) (map[string]cellGolden, error) {
	b, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("golden for %s: %w", workload, err)
	}
	var cells []cellGolden
	if err := json.Unmarshal(b, &cells); err != nil {
		return nil, fmt.Errorf("golden for %s: %w", workload, err)
	}
	m := make(map[string]cellGolden, len(cells))
	for _, c := range cells {
		m[cellKey(c.App, c.Design)] = c
	}
	return m, nil
}

// checkCell compares a finished cell with its golden. Without goldens (the
// 8-unit variants) a cell passes when every spawned task executed. An
// observed cell's event count is not compared: the metrics sampler's ticks
// are engine events of their own.
func checkCell(gold map[string]cellGolden, r *stats.Result, observed bool) error {
	if gold == nil {
		if r.TasksExecuted != r.TasksSpawned {
			return fmt.Errorf("executed %d of %d spawned tasks", r.TasksExecuted, r.TasksSpawned)
		}
		return nil
	}
	want, ok := gold[cellKey(r.App, r.Design)]
	if !ok {
		return fmt.Errorf("no golden cell")
	}
	got := goldenOf(r)
	if observed {
		got.Events = want.Events
	}
	if got != want {
		return fmt.Errorf("result differs from golden:\n  got  %+v\n  want %+v", got, want)
	}
	return nil
}

// updateGolden runs one pass in table order and rewrites the workload's
// golden file under perfbench/golden (run from the repository root, as
// run.sh does).
func updateGolden(r runner) error {
	r.seed = defaultSeed
	p := r.runPass(nil, nil)
	if len(p.failures) > 0 {
		logFailures(p)
		return fmt.Errorf("%d cells failed; golden not written", len(p.failures))
	}
	cells := make([]cellGolden, len(p.results))
	for i, res := range p.results {
		cells[i] = goldenOf(res)
	}
	b, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join("perfbench", "golden", r.wl.name+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write golden: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s (%d cells)\n", path, len(cells))
	return nil
}
