// Command ndptrace validates and summarizes the trace artifacts ndpsim
// writes. It is the CI smoke hook for the causal-tracing pipeline:
//
//	ndpsim -app tree -design O -small -trace trace.json -critpath-json crit.json
//	ndptrace -check trace.json     # structural validation of the trace
//	ndptrace -critcheck crit.json  # attribution sums to the epoch makespan
//
// -check verifies the file parses as a Chrome/Perfetto JSON array, every
// span's parent exists and was recorded before it, no event has a negative
// duration or timestamp, and every flow arrow references a recorded span.
// -critcheck verifies each epoch's category attribution sums exactly to the
// epoch's length and the totals row to the sum of epochs. Both print a short
// summary on success and exit 1 with a diagnostic on the first violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ndpbridge/internal/trace"
)

func main() {
	var (
		check     = flag.String("check", "", "validate an ndpsim -trace JSON file")
		critcheck = flag.String("critcheck", "", "validate a -critpath-json report file")
	)
	flag.Parse()
	if *check == "" && *critcheck == "" {
		fmt.Fprintln(os.Stderr, "usage: ndptrace -check trace.json | -critcheck crit.json")
		os.Exit(2)
	}
	if *check != "" {
		if err := checkFlowTrace(*check); err != nil {
			fmt.Fprintf(os.Stderr, "ndptrace: %s: %v\n", *check, err)
			os.Exit(1)
		}
	}
	if *critcheck != "" {
		if err := checkCritReport(*critcheck); err != nil {
			fmt.Fprintf(os.Stderr, "ndptrace: %s: %v\n", *critcheck, err)
			os.Exit(1)
		}
	}
}

// traceEvent is the subset of the Chrome trace event schema the validator
// reads. Fields absent from a given event unmarshal to their zero values.
type traceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Pid  int64  `json:"pid"`
	Tid  int64  `json:"tid"`
	ID   uint32 `json:"id"`
	Args struct {
		Span   uint32 `json:"span"`
		Parent uint32 `json:"parent"`
		Flow   uint64 `json:"flow"`

		Retained     *int64 `json:"retained"`
		Dropped      *int64 `json:"dropped"`
		Spans        *int64 `json:"spans"`
		SpansDropped *int64 `json:"spans_dropped"`
	} `json:"args"`
}

func checkFlowTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var events []traceEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("not a JSON event array: %w", err)
	}
	if len(events) == 0 || events[0].Ph != "M" || events[0].Name != "ndpbridge_trace_info" {
		return fmt.Errorf("missing leading ndpbridge_trace_info metadata record")
	}
	meta := events[0]

	spans := map[uint32]traceEvent{}
	intervals, arrows := 0, 0
	for i, ev := range events[1:] {
		if ev.TS < 0 {
			return fmt.Errorf("event %d (%q): negative timestamp %d", i+1, ev.Name, ev.TS)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("event %d (%q): negative duration %d", i+1, ev.Name, ev.Dur)
		}
		switch {
		case ev.Ph == "X" && ev.Args.Span != 0:
			id := ev.Args.Span
			if _, dup := spans[id]; dup {
				return fmt.Errorf("span %d recorded twice", id)
			}
			if p := ev.Args.Parent; p != 0 && p >= id {
				return fmt.Errorf("span %d: parent %d not recorded before it", id, p)
			}
			spans[id] = ev
		case ev.Ph == "X":
			intervals++
		case ev.Ph == "s" || ev.Ph == "f":
			arrows++
		}
	}
	// Spans are numbered densely from 1, so presence of every parent reduces
	// to presence of every ID up to the max — verify both ways.
	for id, ev := range spans {
		if p := ev.Args.Parent; p != 0 {
			if _, ok := spans[p]; !ok {
				return fmt.Errorf("span %d: parent %d does not exist", id, p)
			}
		}
	}
	for i := 1; i <= len(spans); i++ {
		if _, ok := spans[uint32(i)]; !ok {
			return fmt.Errorf("span numbering has a hole at %d (%d spans)", i, len(spans))
		}
	}
	if arrows%2 != 0 {
		return fmt.Errorf("unpaired flow arrows: %d s/f events", arrows)
	}
	for i, ev := range events[1:] {
		if ev.Ph != "s" && ev.Ph != "f" {
			continue
		}
		if _, ok := spans[ev.ID]; !ok {
			return fmt.Errorf("event %d: flow arrow references unknown span %d", i+1, ev.ID)
		}
	}
	if meta.Args.Spans != nil && int(*meta.Args.Spans) != len(spans) {
		return fmt.Errorf("metadata claims %d spans, file holds %d", *meta.Args.Spans, len(spans))
	}
	fmt.Printf("%s: ok — %d interval events, %d spans, %d flow arrows\n",
		path, intervals, len(spans), arrows/2)
	return nil
}

func checkCritReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep trace.CritReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("not a critical-path report: %w", err)
	}
	if len(rep.Epochs) == 0 {
		return fmt.Errorf("report holds no epochs")
	}
	var total trace.CatCycles
	var covered uint64
	for _, ep := range rep.Epochs {
		if ep.End < ep.Start {
			return fmt.Errorf("epoch %d: end %d before start %d", ep.Epoch, ep.End, ep.Start)
		}
		if got, want := ep.Attr.Total(), ep.End-ep.Start; got != want {
			return fmt.Errorf("epoch %d: attribution sums to %d cycles, epoch is %d", ep.Epoch, got, want)
		}
		total.Accum(ep.Attr)
		covered += ep.End - ep.Start
	}
	if covered != rep.Makespan {
		return fmt.Errorf("epochs cover %d cycles, makespan is %d", covered, rep.Makespan)
	}
	if total != rep.Total {
		return fmt.Errorf("totals row disagrees with the sum of epochs")
	}
	dom, frac := rep.Dominant()
	fmt.Printf("%s: ok — %d epochs, %d cycles, dominant %s (%.1f%%)\n",
		path, len(rep.Epochs), rep.Makespan, dom, 100*frac)
	return nil
}
