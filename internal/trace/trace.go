// Package trace is a run's one observation stream. Components call it once
// at each pickup and commit point — TaskStart/TaskEnd around a task
// execution, Delivered at a message's bank commit, Epoch at a barrier, and
// msg.(*Message).Hop at every message leg — and each call feeds every
// consumer at once: the task and message latency histograms, the activity
// events (utilization heatmap, Perfetto timeline) and the causal spans
// (Perfetto flow arrows, critical path). A nil *Recorder is safe to pass
// everywhere and costs one branch per call.
package trace

import (
	"fmt"
	"sort"
	"strings"

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
// long runs; the default keeps the first two million events). The zero
// Recorder keeps no events or spans and counts no drops: it only feeds the
// histograms bound by BindMetrics, which is how a metrics-only run observes.
type Recorder struct {
	events  []Event
	cap     int
	dropped uint64

	// Causal flow state (span.go), active only after EnableFlows: spans with
	// parent links under their own cap, and epoch boundary marks.
	flows     bool
	spans     []Span
	spanCap   int
	spanDrops uint64
	nextFlow  uint64
	epochs    []EpochMark

	// Histograms bound by BindMetrics; nil (single-branch no-ops) when
	// metrics are off.
	taskLat  *metrics.Histogram // spawn → execution start
	taskExec *metrics.Histogram // execution duration
	msgLat   *metrics.Histogram // staging → bank commit
	catHist  [nCategories]*metrics.Histogram
}

// New returns a recorder with the given event capacity (0 = default 2M).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 2_000_000
	}
	return &Recorder{cap: capacity}
}

// BindMetrics attaches the histograms the entry points feed: the task
// queueing and execution latencies, the message delivery latency when the
// run has NDP units (msgs), and — on a recorder that keeps events or spans —
// one wait-time histogram per attribution category (wait_<category>_cycles),
// fed by span durations. A nil registry leaves them nil.
func (r *Recorder) BindMetrics(reg *metrics.Registry, msgs bool) {
	if r == nil {
		return
	}
	r.taskLat = reg.Histogram("task_latency_cycles")
	r.taskExec = reg.Histogram("task_exec_cycles")
	if msgs {
		r.msgLat = reg.Histogram("msg_latency_cycles")
	}
	if r.cap == 0 && !r.flows {
		return
	}
	for c := 0; c < NumCategories; c++ {
		name := "wait_" + strings.ReplaceAll(categoryNames[c], "-", "_") + "_cycles"
		r.catHist[c] = reg.Histogram(name)
	}
}

// TaskStart records actor picking up a task at now: the queueing latency
// since spawnedAt (skipped for a task picked up before it was spawned) and,
// with flows on, the closed queue-wait span chained to the task's parent
// span and an open execution span. It returns the execution span's ID (0
// with flows off), which the task's children take as their parent and
// TaskEnd closes.
func (r *Recorder) TaskStart(parent uint32, id, spawnedAt uint64, actor int, now uint64) uint32 {
	if r == nil {
		return 0
	}
	if spawnedAt <= now {
		r.taskLat.Observe(now - spawnedAt)
	}
	if !r.flows {
		return 0
	}
	flow, enq := r.taskOrigin(parent, id, spawnedAt)
	q := r.Span(flow, parent, SpanQueued, CatTaskQueue, actor, enq, now)
	return r.openSpan(flow, q, SpanExec, CatBankBusy, actor, now)
}

// TaskEnd records the execution TaskStart opened as exec ending at end: it
// closes the span, samples the execution time and records the KindTask
// activity event, labelled with the handler's name.
func (r *Recorder) TaskEnd(exec uint32, actor int, start, end uint64, label string) {
	if r == nil {
		return
	}
	r.closeSpan(exec, end)
	r.taskExec.Observe(end - start)
	r.Record(KindTask, actor, start, end, label)
}

// Delivered records a message's commit at actor's bank at now: the
// KindDeliver activity event and the latency since stagedAt (skipped for a
// message staged after now). The leg that ended here is the message's Hop.
func (r *Recorder) Delivered(actor int, stagedAt, now uint64) {
	if r == nil {
		return
	}
	r.Record(KindDeliver, actor, now, now, "")
	if stagedAt <= now {
		r.msgLat.Observe(now - stagedAt)
	}
}

// Epoch records that epoch n began at now: the KindEpoch activity event and,
// with flows on, the mark that bounds the epoch's critical-path attribution.
// Marks arrive in time order (the barrier fires them).
func (r *Recorder) Epoch(n uint32, now uint64) {
	if r == nil {
		return
	}
	r.Record(KindEpoch, -1, now, now, fmt.Sprintf("epoch %d", n))
	if r.flows {
		r.epochs = append(r.epochs, EpochMark{N: n, At: now})
	}
}

// Record appends an event. Nil and zero receivers are no-ops so call sites
// need no guards beyond the nil check the compiler inlines.
func (r *Recorder) Record(k Kind, actor int, start, end uint64, label string) {
	if r == nil || r.cap == 0 {
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
