// Package sim provides the discrete-event simulation kernel used by the
// NDPBridge system model: an event engine ordered by cycle time, a
// deterministic random number generator, and bandwidth-reserving links.
//
// All simulator time is measured in NDP-core cycles (400 MHz, 2.5 ns per
// cycle in the default configuration). The engine is deliberately minimal:
// components schedule closures at absolute or relative times and the engine
// runs them in (time, insertion) order until the event queue drains or a
// limit is reached.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
)

// Cycles is a point in (or duration of) simulated time, in NDP-core cycles.
type Cycles = uint64

// event is a scheduled callback. Events with equal times fire in insertion
// order, which keeps runs deterministic.
type event struct {
	time Cycles
	seq  uint64
	fn   func()
}

// ErrLimit is returned by Run when the event budget is exhausted before the
// event queue drains, which usually indicates a livelocked model.
var ErrLimit = errors.New("sim: event limit exceeded")

// The calendar queue (time wheel) in front of the min-heap. Nearly every
// scheduling delta in the model is small and bounded — DRAM bank timings are
// tens of cycles, bus rounds hundreds, and the slowest periodic sweeps run at
// 1.5×IState (3000 cycles by default) — so a wheel covering wheelSize future
// cycles absorbs the heap's O(log n) sift work for almost all events.
const (
	wheelBits  = 10
	wheelSize  = 1 << wheelBits // cycles of look-ahead the wheel covers
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
)

// WheelSize is the calendar queue's look-ahead span in cycles. Per-bucket
// storage grows lazily, so steady-state zero-allocation dispatch is reached
// after one full wheel revolution at load; allocation-sensitive callers (and
// tests) should warm up for at least WheelSize cycles.
const WheelSize = wheelSize

// bucket holds the wheel events of one slot. Because every pending wheel
// event satisfies now <= time < now+wheelSize (events are inserted with a
// delta below wheelSize and popped before now passes them), two different
// pending times can never share a slot: a bucket always holds events of
// exactly one time, in ascending seq order. The head index makes pops O(1)
// while retaining the backing array for reuse.
type bucket struct {
	evs  []event
	head int
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
//
// Near-future events (delta < wheelSize) go to the calendar queue; far-future
// events overflow to a hand-rolled binary min-heap over []event ordered by
// (time, seq). Unlike container/heap the heap never boxes events into
// interface{} values, so the Schedule/Run hot path is allocation-free once
// the backing arrays have grown to the model's high-water mark; the arrays
// are kept in place across pops and reused.
type Engine struct {
	now     Cycles
	seq     uint64
	pq      []event
	stopped bool

	// wheel is the calendar queue; wheelCount tracks its population and
	// wheelNext is a lower bound on its earliest pending event time. occ
	// is a one-bit-per-slot occupancy bitmap, so the pop-side scan jumps
	// over empty slots a word (64 slots) at a time instead of one by one.
	wheel      []bucket
	wheelCount int
	wheelNext  Cycles
	occ        [wheelWords]uint64 //ndplint:nosnap derived from wheel occupancy

	// evSlab seeds cold buckets with a small initial capacity carved from
	// one larger allocation, replacing each bucket's first append-growth
	// steps (thousands of tiny growslice calls per engine) with a few
	// slab allocations. A bucket holds only the events of a single cycle,
	// so steady-state occupancy is pending/wheelSize — usually 0–2 — and
	// the seed stays small. Chunks are never returned; a bucket that
	// outgrows its seed abandons it for a normally-grown array.
	evSlab []event //ndplint:nosnap allocator state, no logical content

	// heapOnly disables the wheel (every event goes through the min-heap).
	// The equivalence tests run both configurations against each other.
	heapOnly bool

	// Processed counts events executed so far; useful for budgeting.
	processed uint64

	// Progress hook: progressFn fires every progressEvery processed events
	// (progressLeft counts down to avoid a modulo on the hot path).
	progressFn    func(now Cycles, processed uint64)
	progressEvery uint64
	progressLeft  uint64

	// Audit hook: auditFn fires at most once per auditEvery simulated
	// cycles, before the first event at or past auditNext executes — a
	// point where no event is mid-flight, so cross-component invariants
	// hold. Separate from the progress hook: both are commonly installed
	// at once (heartbeat + auditor).
	auditFn    func(now Cycles)
	auditEvery Cycles
	auditNext  Cycles
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{pq: make([]event, 0, 64), wheel: make([]bucket, wheelSize)}
}

// SetHeapOnly routes every future event through the min-heap, bypassing the
// calendar queue. Both paths order events identically by (time, seq); the
// toggle exists so determinism tests can prove it. Call before scheduling.
func (e *Engine) SetHeapOnly(on bool) { e.heapOnly = on }

// less orders the heap by time, breaking ties by insertion sequence.
func (e *Engine) less(i, j int) bool {
	if e.pq[i].time != e.pq[j].time {
		return e.pq[i].time < e.pq[j].time
	}
	return e.pq[i].seq < e.pq[j].seq
}

// siftUp restores the heap invariant after appending at index i.
//
//ndplint:hotpath
func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.pq[i], e.pq[parent] = e.pq[parent], e.pq[i]
		i = parent
	}
}

// siftDown restores the heap invariant after replacing the root.
//
//ndplint:hotpath
func (e *Engine) siftDown(i int) {
	n := len(e.pq)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.less(right, left) {
			least = right
		}
		if !e.less(least, i) {
			return
		}
		e.pq[i], e.pq[least] = e.pq[least], e.pq[i]
		i = least
	}
}

// push inserts ev into the heap.
//
//ndplint:hotpath
func (e *Engine) push(ev event) {
	e.pq = append(e.pq, ev)
	e.siftUp(len(e.pq) - 1)
}

// pop removes and returns the earliest event. The vacated slot is zeroed so
// the heap does not retain the popped closure.
//
//ndplint:hotpath
func (e *Engine) pop() event {
	ev := e.pq[0]
	n := len(e.pq) - 1
	e.pq[0] = e.pq[n]
	e.pq[n] = event{}
	e.pq = e.pq[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return ev
}

// scheduleWheel places ev in its calendar slot. Appends are already in seq
// order for fresh sequence numbers; an event carrying an older reserved seq
// (AtSeq) is insertion-sorted from the tail so the bucket stays seq-ordered.
//
//ndplint:hotpath
func (e *Engine) scheduleWheel(ev event) {
	idx := int(ev.time & wheelMask)
	b := &e.wheel[idx]
	if cap(b.evs) == 0 {
		const seedCap = 2
		if len(e.evSlab) < seedCap {
			e.evSlab = make([]event, 128*seedCap) //ndplint:alloc amortized slab growth
		}
		b.evs = e.evSlab[:0:seedCap]
		e.evSlab = e.evSlab[seedCap:]
	}
	b.evs = append(b.evs, ev)
	for i := len(b.evs) - 1; i > b.head && b.evs[i-1].seq > ev.seq; i-- {
		b.evs[i], b.evs[i-1] = b.evs[i-1], b.evs[i]
	}
	e.occ[idx>>6] |= 1 << (idx & 63)
	if e.wheelCount == 0 || ev.time < e.wheelNext {
		e.wheelNext = ev.time
	}
	e.wheelCount++
}

// schedule routes one event to the wheel or the overflow heap.
//
//ndplint:hotpath
func (e *Engine) schedule(t Cycles, seq uint64, fn func()) {
	if !e.heapOnly && t-e.now < wheelSize {
		e.scheduleWheel(event{time: t, seq: seq, fn: fn})
		return
	}
	e.push(event{time: t, seq: seq, fn: fn})
}

// peekWheel returns the earliest pending wheel event time. It advances the
// wheelNext lower bound to the first occupied slot at or after it, scanning
// the occupancy bitmap a word (64 slots) at a time. Every wheel event lies
// in [now, now+wheelSize), so slot distance from wheelNext equals time
// distance and the wrap-around scan visits each word at most once; the
// caller guarantees wheelCount > 0, so a set bit exists.
//
//ndplint:hotpath
func (e *Engine) peekWheel() Cycles {
	if e.wheelNext < e.now {
		e.wheelNext = e.now
	}
	idx := int(e.wheelNext & wheelMask)
	w := idx >> 6
	word := e.occ[w] >> (idx & 63) << (idx & 63) // mask off slots before idx
	for word == 0 {
		w = (w + 1) % wheelWords
		word = e.occ[w]
	}
	slot := w<<6 + bits.TrailingZeros64(word)
	step := slot - idx
	if step < 0 {
		step += wheelSize
	}
	e.wheelNext += Cycles(step)
	return e.wheelNext
}

//ndplint:hotpath
func (b *bucket) len() int { return len(b.evs) - b.head }

// popWheel removes the earliest wheel event, which sits at the head of the
// slot for time t. The vacated slot is zeroed so the wheel does not retain
// the popped closure; an emptied bucket keeps its backing array.
//
//ndplint:hotpath
func (e *Engine) popWheel(t Cycles) event {
	idx := int(t & wheelMask)
	b := &e.wheel[idx]
	ev := b.evs[b.head]
	b.evs[b.head] = event{}
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
		e.occ[idx>>6] &^= 1 << (idx & 63)
	}
	e.wheelCount--
	return ev
}

// popNext removes the globally earliest event across the wheel and the heap,
// ordered by (time, seq). The second return is false when no events remain.
//
//ndplint:hotpath
func (e *Engine) popNext() (event, bool) {
	if e.wheelCount == 0 {
		if len(e.pq) == 0 {
			return event{}, false
		}
		return e.pop(), true
	}
	wt := e.peekWheel()
	if len(e.pq) == 0 {
		return e.popWheel(wt), true
	}
	root := &e.pq[0]
	if wt < root.time || (wt == root.time && e.wheel[int(wt&wheelMask)].evs[e.wheel[int(wt&wheelMask)].head].seq < root.seq) {
		return e.popWheel(wt), true
	}
	return e.pop(), true
}

// peekNextTime returns the earliest pending event time (for RunUntil's
// window check). Call only when events are pending.
//
//ndplint:hotpath
func (e *Engine) peekNextTime() Cycles {
	if e.wheelCount == 0 {
		return e.pq[0].time
	}
	wt := e.peekWheel()
	if len(e.pq) > 0 && e.pq[0].time < wt {
		return e.pq[0].time
	}
	return wt
}

// Now returns the current simulated time.
func (e *Engine) Now() Cycles { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.pq) + e.wheelCount }

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a model bug.
//
//ndplint:hotpath
func (e *Engine) At(t Cycles, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	e.seq++
	e.schedule(t, e.seq, fn)
}

// ReserveSeq draws the next insertion sequence number without scheduling an
// event. Batched-delivery queues reserve a seq per enqueued item at enqueue
// time and later schedule their dispatch event with AtSeq, so the global
// (time, seq) execution order is exactly what per-item scheduling would have
// produced.
//
//ndplint:hotpath
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// AtSeq schedules fn at absolute time t under a sequence number previously
// drawn with ReserveSeq. Like At, scheduling in the past panics.
//
//ndplint:hotpath
func (e *Engine) AtSeq(t Cycles, seq uint64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	e.schedule(t, seq, fn)
}

// CreditEvent accounts one logically distinct event that a batched callback
// executed inline (a same-cycle coalesced delivery), keeping Processed equal
// to the per-item scheduling count.
//
//ndplint:hotpath
func (e *Engine) CreditEvent() { e.processed++ }

// After schedules fn d cycles from now.
//
//ndplint:hotpath
func (e *Engine) After(d Cycles, fn func()) { e.At(e.now+d, fn) }

// Stop makes Run (or RunUntil) return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetProgress installs fn to be invoked every `every` processed events, from
// inside the run loop (same goroutine, no synchronization needed). It powers
// progress heartbeats on long runs; the countdown adds two predictable
// branches per event and no allocations. every == 0 or fn == nil disables
// the hook.
func (e *Engine) SetProgress(every uint64, fn func(now Cycles, processed uint64)) {
	if fn == nil {
		every = 0
	}
	e.progressFn = fn
	e.progressEvery = every
	e.progressLeft = every
}

// SetAudit installs fn to run at most once per `every` simulated cycles,
// between events (never while one is executing). every == 0 or fn == nil
// disables the hook. The check costs one branch per event when disabled.
func (e *Engine) SetAudit(every Cycles, fn func(now Cycles)) {
	if fn == nil {
		every = 0
	}
	e.auditFn = fn
	e.auditEvery = every
	e.auditNext = e.now + every
}

// tickAudit fires the audit hook when the next event's time has reached the
// audit deadline. Called before the event executes, with now already
// advanced to the event's time.
//
//ndplint:hotpath
func (e *Engine) tickAudit() {
	if e.auditEvery != 0 && e.now >= e.auditNext {
		e.auditFn(e.now)
		e.auditNext = e.now + e.auditEvery
	}
}

// State captures the engine's scalar clock state. The pending-event queue
// holds closures and is deliberately NOT part of the snapshot: full-state
// checkpoints are taken at the bulk-sync epoch barrier, where the model's
// in-flight structures are provably empty, and resume replays
// deterministically up to the barrier (see internal/core and DESIGN.md §10).
type State struct {
	Now       Cycles
	Seq       uint64
	Processed uint64
}

// SnapState returns the engine's clock state.
func (e *Engine) SnapState() State {
	return State{Now: e.now, Seq: e.seq, Processed: e.processed}
}

// tickProgress advances the progress countdown after one executed event.
//
//ndplint:hotpath
func (e *Engine) tickProgress() {
	if e.progressLeft != 0 {
		e.progressLeft--
		if e.progressLeft == 0 {
			e.progressLeft = e.progressEvery
			e.progressFn(e.now, e.processed)
		}
	}
}

// Run executes events until the queue drains, Stop is called, or maxEvents
// events have run (0 means no limit). It returns ErrLimit if the budget was
// exhausted with events still pending.
//
//ndplint:hotpath
func (e *Engine) Run(maxEvents uint64) error {
	e.stopped = false
	for !e.stopped {
		if maxEvents > 0 && e.processed >= maxEvents {
			if len(e.pq)+e.wheelCount > 0 {
				return ErrLimit
			}
			return nil
		}
		ev, ok := e.popNext()
		if !ok {
			return nil
		}
		if ev.time < e.now {
			panic("sim: event time regression")
		}
		e.now = ev.time
		e.tickAudit()
		e.processed++
		ev.fn()
		e.tickProgress()
	}
	return nil
}

// RunUntil executes events with time <= t, then sets now = t. Like Run it
// clears any prior Stop on entry and honors a Stop issued by an event; when
// stopped mid-window, now stays at the last executed event rather than
// jumping to t, so the remaining events are still in the future.
//
//ndplint:hotpath
func (e *Engine) RunUntil(t Cycles) {
	e.stopped = false
	for len(e.pq)+e.wheelCount > 0 && e.peekNextTime() <= t && !e.stopped {
		ev, _ := e.popNext()
		if ev.time < e.now {
			panic("sim: event time regression")
		}
		e.now = ev.time
		e.tickAudit()
		e.processed++
		ev.fn()
		e.tickProgress()
	}
	if e.now < t && !e.stopped {
		e.now = t
	}
}
