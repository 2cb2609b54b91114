// Package trace records simulation activity — task executions, message
// deliveries, communication rounds, and load-balancing decisions — and
// renders it as a Chrome trace (chrome://tracing / Perfetto JSON), as
// per-unit utilization timelines, and as activity summaries. Tracing is
// optional: a nil *Recorder is safe to pass everywhere and costs one branch.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"ndpbridge/internal/metrics"
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindTask is one task execution on an NDP unit or host core.
	KindTask Kind = iota
	// KindDeliver is a message commit at its destination.
	KindDeliver
	// KindGather is one bridge gather round.
	KindGather
	// KindScatter is one bridge scatter round.
	KindScatter
	// KindLB is one load-balancing command.
	KindLB
	// KindEpoch is a bulk-synchronization barrier.
	KindEpoch
	// KindFault is an injected fault event (kill, stall, overflow).
	KindFault
	nKinds
)

var kindNames = [nKinds]string{"task", "deliver", "gather", "scatter", "lb", "epoch", "fault"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded activity interval. Times are in NDP-core cycles.
type Event struct {
	Kind  Kind
	Actor int // unit ID, bridge rank, or -1 for system-level events
	Start uint64
	End   uint64
	Label string
}

// Recorder accumulates events up to a configurable cap (to bound memory on
// long runs; the default keeps the first two million events).
type Recorder struct {
	events  []Event
	cap     int
	dropped uint64

	// Causal flow state (span.go), active only after EnableFlows: spans with
	// parent links under their own cap, epoch boundary marks, and optional
	// per-category wait histograms bound by BindMetrics.
	flows     bool
	spans     []Span
	spanCap   int
	spanDrops uint64
	nextFlow  uint64
	epochs    []EpochMark
	catHist   [nCategories]*metrics.Histogram
}

// New returns a recorder with the given event capacity (0 = default 2M).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 2_000_000
	}
	return &Recorder{cap: capacity}
}

// Record appends an event. Nil receivers are no-ops so call sites need no
// guards beyond the nil check the compiler inlines.
func (r *Recorder) Record(k Kind, actor int, start, end uint64, label string) {
	if r == nil {
		return
	}
	if len(r.events) >= r.cap {
		r.dropped++
		return
	}
	if end < start {
		end = start
	}
	r.events = append(r.events, Event{Kind: k, Actor: actor, Start: start, End: end, Label: label})
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Dropped returns how many events exceeded the capacity.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the retained events (do not modify).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// ChromeTrace writes the events as a Chrome/Perfetto trace JSON array.
// Units appear as thread lanes; cycle timestamps are emitted as
// microseconds so the viewer's time axis reads directly in cycles. The
// first record is metadata carrying the retained/dropped counts, so a
// consumer can tell a complete capture from one truncated at the cap.
// A nil recorder writes a valid trace holding only that record.
func (r *Recorder) ChromeTrace(w io.Writer) error {
	capacity := 0
	if r != nil {
		capacity = r.cap
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw,
		`[`+"\n"+`  {"name":"ndpbridge_trace_info","ph":"M","pid":0,"tid":0,"args":{"retained":%d,"dropped":%d,"capacity":%d}}`,
		r.Len(), r.Dropped(), capacity); err != nil {
		return err
	}
	if err := r.writeEventBody(bw); err != nil {
		return err
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writeEventBody emits the interval-event records shared by ChromeTrace and
// FlowTrace (one ",\n  {...}" per event, continuing an open JSON array).
func (r *Recorder) writeEventBody(bw *bufio.Writer) error {
	for _, e := range r.Events() {
		dur := e.End - e.Start
		if dur == 0 {
			dur = 1
		}
		name := e.Label
		if name == "" {
			name = e.Kind.String()
		}
		if _, err := fmt.Fprintf(bw,
			",\n"+`  {"name":%q,"cat":%q,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d}`,
			name, e.Kind, e.Start, dur, e.Actor+1); err != nil {
			return err
		}
	}
	return nil
}

// Utilization returns, for each actor, the fraction of each of `buckets`
// equal time slices of [0, makespan) covered by task execution. Actors are
// returned in ascending ID order alongside the matrix.
func (r *Recorder) Utilization(makespan uint64, buckets int) (actors []int, util [][]float64) {
	if r == nil || makespan == 0 || buckets <= 0 {
		return nil, nil
	}
	per := make(map[int][]float64)
	width := float64(makespan) / float64(buckets)
	for _, e := range r.Events() {
		if e.Kind != KindTask {
			continue
		}
		row := per[e.Actor]
		if row == nil {
			row = make([]float64, buckets)
			per[e.Actor] = row
		}
		// Spread the interval across the buckets it overlaps.
		s, t := float64(e.Start), float64(e.End)
		for b := int(s / width); b < buckets && float64(b)*width < t; b++ {
			lo := float64(b) * width
			hi := lo + width
			if s > lo {
				lo = s
			}
			if t < hi {
				hi = t
			}
			if hi > lo {
				row[b] += (hi - lo) / width
			}
		}
	}
	for a := range per {
		actors = append(actors, a)
	}
	sort.Ints(actors)
	for _, a := range actors {
		util = append(util, per[a])
	}
	return actors, util
}

// Heatmap renders the utilization matrix as a coarse ASCII heatmap, one row
// per actor — handy for eyeballing imbalance in a terminal.
func (r *Recorder) Heatmap(makespan uint64, buckets int) string {
	actors, util := r.Utilization(makespan, buckets)
	shades := []byte(" .:-=+*#%@")
	out := make([]byte, 0, len(actors)*(buckets+8))
	for i, a := range actors {
		out = append(out, []byte(fmt.Sprintf("%4d |", a))...)
		for _, u := range util[i] {
			idx := int(u * float64(len(shades)-1))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			if idx < 0 {
				idx = 0
			}
			out = append(out, shades[idx])
		}
		out = append(out, '|', '\n')
	}
	return string(out)
}
