package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// timedRun makes whole passes until the next one would end past the budget
// (at least one) and reports the end-to-end metrics. Host times are summed
// over cells, each cell at its median over passes, so a slow moment of the
// machine moves one sample of one cell instead of a whole pass. setup_s is
// the setup each pass makes, taken the same way. Both are then scaled to the
// reference machine by the calibration samples taken beside the cells.
func (r runner) timedRun(seconds int) (report, error) {
	gold, err := r.goldens()
	if err != nil {
		return report{}, err
	}
	r.calibrate = true
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var passes []*pass
	rep := report{Metrics: map[string]metric{}}
	for {
		t0 := time.Now()
		p := r.runPass(gold, nil)
		last := time.Since(t0)
		logFailures(p)
		passes = append(passes, p)
		rep.Attempted += len(r.wl.cells)
		rep.Failed += len(p.failures)
		if time.Since(start)+last > budget {
			break
		}
	}
	var wall, setup float64
	var calib []float64
	for i := range passes[0].cells {
		var w, s []float64
		for _, p := range passes {
			w = append(w, p.cells[i].wall.Seconds())
			s = append(s, p.cells[i].setup.Seconds())
			calib = append(calib, p.cells[i].calib.Seconds())
		}
		wall += median(w)
		setup += median(s)
	}
	scale := calibScale(calib)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, walls", r.wl.name, r.seed, len(passes))
	for _, p := range passes {
		fmt.Fprintf(os.Stderr, " %.3fs", p.wall.Seconds())
	}
	fmt.Fprintf(os.Stderr, "; raw wall %.4fs setup %.4fs; calibration median %.3fms scale %.4f\n",
		wall, setup, 1e3*median(calib), scale)
	wall *= scale
	setup *= scale
	var events, alloc, live []float64
	for _, p := range passes {
		events = append(events, float64(p.events))
		alloc = append(alloc, float64(p.allocB)/(1<<20))
		live = append(live, float64(p.liveB)/(1<<20))
	}
	rep.Metrics["wall_s"] = metric{wall, "s"}
	rep.Metrics["setup_s"] = metric{setup, "s"}
	rep.Metrics["events_per_s"] = metric{median(events) / (wall - setup), "1/s"}
	rep.Metrics["alloc_mb"] = metric{median(alloc), "MB"}
	rep.Metrics["live_heap_mb"] = metric{median(live), "MB"}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
