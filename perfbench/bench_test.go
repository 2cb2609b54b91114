package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"ndpbridge/internal/stats"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts that rep carries exactly the named metrics, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(rep.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := rep.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s unit %q, want %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

// TestSmallWorkloads drives an 8-unit variant of every workload through the
// timed and the traced code paths.
func TestSmallWorkloads(t *testing.T) {
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		if _, ok := lookupWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s unknown to the harness", sw.Name)
		}
	}
	for _, wl := range benchWorkloads {
		t.Run(wl.name, func(t *testing.T) {
			r := runner{wl: wl, seed: defaultSeed, small: true}
			rep, err := r.timedRun(0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != len(wl.cells) {
				t.Errorf("timed: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep, spec.EndToEnd)

			rep, err = r.tracedRun()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted != 2*len(wl.cells) {
				t.Errorf("traced: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep, spec.PerLayer)

			var self float64
			for _, l := range selfLayers {
				self += rep.Metrics[l+".self_s"].Value
			}
			if cpu := rep.Metrics["cpu.profiled_s"].Value; math.Abs(self-cpu) > 1e-9*math.Max(1, cpu) {
				t.Errorf("self_s sums to %v, profiled CPU is %v", self, cpu)
			}
		})
	}
}

// TestPlantedMismatch plants a wrong makespan in one golden cell and
// expects exactly that cell to fail.
func TestPlantedMismatch(t *testing.T) {
	wl, _ := lookupWorkload("lb-full")
	r := runner{wl: wl, seed: defaultSeed, small: true}
	p := r.runPass(nil, nil)
	if len(p.failures) != 0 {
		t.Fatal(p.failures)
	}
	gold := map[string]cellGolden{}
	for _, res := range p.results {
		gold[cellKey(res.App, res.Design)] = goldenOf(res)
	}
	r.golden = gold
	if rep, err := r.timedRun(0); err != nil || !rep.Correct {
		t.Fatalf("unplanted golden: correct=%v err=%v", rep.Correct, err)
	}
	first := p.results[0]
	g := gold[cellKey(first.App, first.Design)]
	g.Makespan++
	gold[cellKey(first.App, first.Design)] = g
	rep, err := r.timedRun(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 1 || rep.Attempted != len(wl.cells) {
		t.Errorf("planted mismatch: correct=%v attempted=%d failed=%d, want one failed cell",
			rep.Correct, rep.Attempted, rep.Failed)
	}
}

// TestSeedOrdersCells checks that the default seed keeps table order and
// that another seed runs a fixed permutation of the same cells.
func TestSeedOrdersCells(t *testing.T) {
	wl, _ := lookupWorkload("fig10-medium")
	if got := (runner{wl: wl, seed: defaultSeed}).cells(); !slices.Equal(got, wl.cells) {
		t.Errorf("default seed order %v, want table order", got)
	}
	a := runner{wl: wl, seed: 7}.cells()
	if slices.Equal(a, wl.cells) {
		t.Error("seed 7 kept table order")
	}
	if !slices.Equal(a, runner{wl: wl, seed: 7}.cells()) {
		t.Error("seed 7 gave two orders")
	}
	key := func(c cell) string { return cellKey(c.app, c.design.String()) }
	var got, want []string
	for i := range a {
		got, want = append(got, key(a[i])), append(want, key(wl.cells[i]))
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("seed 7 cells %v, want a permutation of %v", got, want)
	}
}

// TestLostTaskFails checks the conservation check the 8-unit variants use.
func TestLostTaskFails(t *testing.T) {
	res := &stats.Result{TasksExecuted: 3, TasksSpawned: 4}
	if checkCell(nil, res, false) == nil {
		t.Error("a cell that lost a task passed the conservation check")
	}
}

// TestGoldensLoad checks every committed golden names each cell of its
// workload once.
func TestGoldensLoad(t *testing.T) {
	for _, wl := range benchWorkloads {
		g, err := loadGolden(wl.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(g) != len(wl.cells) {
			t.Errorf("%s: golden has %d cells, workload %d", wl.name, len(g), len(wl.cells))
		}
		for _, c := range wl.cells {
			if _, ok := g[cellKey(c.app, c.design.String())]; !ok {
				t.Errorf("%s: no golden for %s/%v", wl.name, c.app, c.design)
			}
		}
	}
}

// TestFig10GoldenMatchesResults renders the Fig. 10 table from the
// fig10-medium golden, with the formulas experiments.Fig10 uses, and
// compares it with the block committed in results/ndpbench_medium.txt.
func TestFig10GoldenMatchesResults(t *testing.T) {
	b, err := os.ReadFile("../results/ndpbench_medium.txt")
	if err != nil {
		t.Fatal(err)
	}
	title := "== Fig. 10 — speedup over C (makespan ratio); wait% ; avg/max% ==\n"
	text := string(b)
	i := strings.Index(text, title)
	if i < 0 {
		t.Fatal("no Fig. 10 block in results/ndpbench_medium.txt")
	}
	want := text[i:]
	want = want[:strings.Index(want, "\n\n")+1]

	gold, err := loadGolden("fig10-medium")
	if err != nil {
		t.Fatal(err)
	}
	res := func(app, d string) *stats.Result {
		g := gold[cellKey(app, d)]
		return &stats.Result{Makespan: g.Makespan, MaxBusy: g.MaxBusy, AvgBusy: g.AvgBusy}
	}
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	tab := &stats.Table{
		Title:  "Fig. 10 — speedup over C (makespan ratio); wait% ; avg/max%",
		Header: []string{"app", "C", "B", "W", "O", "waitC", "waitB", "waitW", "waitO", "avg/maxB", "avg/maxO"},
	}
	designs := []string{"C", "B", "W", "O"}
	logs := make([]float64, len(designs))
	apps := 0
	for _, c := range benchWorkloads[0].cells {
		if c.design.String() != "C" {
			continue
		}
		a := c.app
		apps++
		row := []string{a}
		for j, d := range designs {
			s := float64(res(a, "C").Makespan) / float64(res(a, d).Makespan)
			logs[j] += math.Log(s)
			row = append(row, f2(s))
		}
		for _, d := range designs {
			row = append(row, pct(res(a, d).WaitFrac()))
		}
		row = append(row, pct(res(a, "B").AvgFrac()), pct(res(a, "O").AvgFrac()))
		tab.Rows = append(tab.Rows, row)
	}
	geo := []string{"geomean", "1.00"}
	for _, l := range logs[1:] {
		geo = append(geo, f2(math.Exp(l/float64(apps))))
	}
	tab.Rows = append(tab.Rows, append(geo, "-", "-", "-", "-", "-", "-"))
	if got := tab.Render(); got != want {
		t.Errorf("Fig. 10 from the golden:\n%s\nresults/ndpbench_medium.txt:\n%s", got, want)
	}
}
