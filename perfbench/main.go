// Command perfbench is the repository benchmark. It runs one workload — a
// closed batch of paper-table simulations — through the simulator's public
// API, checks every simulated cell against a committed golden, and prints
// the measured metrics as one JSON object on the last line of stdout.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload fig10-medium --seed 1 --seconds 50 --trace 0
//
// --trace 0 makes timed passes and prints the end-to-end metrics; --trace 1
// makes one reference pass under the CPU profiler, one observed pass (metrics
// registry and flow tracing attached) and the per-layer microbenchmarks, and
// prints the per-layer metrics. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
)

// defaultSeed runs a workload's cells in table order; other seeds shuffle
// them (see runner.cells).
const defaultSeed = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", defaultSeed, "seed that orders the cells (1: table order)")
		seconds = flag.Int("seconds", 50, "measurement budget in seconds (at least one whole pass always runs)")
		traced  = flag.Int("trace", 0, "0: timed passes, end-to-end metrics; 1: traced run, per-layer metrics")
		update  = flag.Bool("update-golden", false, "run one pass and rewrite the workload's golden file")
	)
	flag.Parse()
	wl, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// Same GC setting as ndpbench: a relaxed target unless GOGC is set.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	r := runner{wl: wl, seed: *seed}

	if *update {
		if err := updateGolden(r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	rec := newRunRecord(wl.name, *seed, *traced)
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))

	var rep report
	if *traced == 1 {
		rep, err = r.tracedRun()
	} else {
		rep, err = r.timedRun(*seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
