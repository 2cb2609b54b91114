package msg

import (
	"ndpbridge/internal/sim"
	"ndpbridge/internal/trace"
)

// This file implements the per-hop retry machinery of the fault-tolerant
// bridge protocol: a retransmit buffer with timeout-driven resend and capped
// exponential backoff (Retrans), and a receiver-side duplicate filter
// (Dedup). Both are plain data structures driven by the owning component on
// the simulation goroutine; neither schedules events unless messages are
// actually tracked, so a run without fault injection never touches them.

// RetransStats counts retry-protocol activity on one hop.
type RetransStats struct {
	Tracked uint64 // messages entered into the retransmit buffer
	Acked   uint64 // positive acknowledgements received
	Nacked  uint64 // negative acknowledgements (checksum failures)
	Retries uint64 // retransmissions sent (timeout or nack)
}

// rentry is one unacked message awaiting acknowledgement.
type rentry struct {
	m        *Message
	deadline sim.Cycles // resend when now >= deadline
	rto      sim.Cycles // current (backed-off) retransmission timeout
}

// Retrans is a sender-side retransmit buffer for one hop. Messages are held
// until acked; on timeout they are resent through the send callback with
// exponentially backed-off deadlines (capped at rtoCap). Full() reports the
// watermark-based backpressure condition: when the buffered bytes exceed the
// limit the sender must stop draining new messages onto the hop, which
// propagates into the existing mailbox/scatter backpressure paths.
type Retrans struct {
	eng *sim.Engine //ndplint:nosnap simulation wiring from construction
	//ndplint:nosnap config constant (initial retransmission timeout)
	rto0 sim.Cycles
	//ndplint:nosnap config constant (backoff cap)
	rtoCap sim.Cycles
	//ndplint:nosnap config constant (watermark in buffered bytes)
	limit uint64
	send  func(m *Message) //ndplint:nosnap callback wiring from construction

	entries []rentry
	bytes   uint64
	armed   bool //ndplint:nosnap deliberately not encoded; RestoreFrom re-arms the sweep
	st      RetransStats

	// jrng, when set via SetJitter, randomizes backed-off deadlines so that
	// hops which lost messages to the same fault (e.g. every child of a dark
	// rank) do not retransmit in lockstep. Seeded per hop from stable
	// identity, so runs stay deterministic; nil means no jitter (the default,
	// preserved for directly-constructed buffers in tests).
	jrng *sim.RNG

	// Causal-trace wiring, set by SetTrace: trc is consulted at each
	// retransmission for the current recorder (late-bound — recorders attach
	// to a system after its components are built) and trcActor labels the
	// retransmission spans.
	trc      func() *trace.Recorder //ndplint:nosnap trace wiring from SetTrace
	trcActor int                    //ndplint:nosnap trace wiring from SetTrace
}

// SetTrace wires a late-bound causal tracer: src returns the recorder in
// effect when a retransmission fires (nil recorders and flow-disabled
// recorders cost one branch), actor labels the spans.
func (r *Retrans) SetTrace(src func() *trace.Recorder, actor int) {
	r.trc = src
	r.trcActor = actor
}

// JitterSeed derives a stable jitter seed from a hop-class tag and an
// identity index (unit, child, or rank), so every retry endpoint in the
// system draws from a distinct — but run-to-run reproducible — stream.
func JitterSeed(hop, id uint64) uint64 {
	x := (hop+1)*0x9e3779b97f4a7c15 ^ (id+1)*0x2545f4914f6cdd1d
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x
}

// SetJitter enables deterministic backoff jitter, seeded from the hop's
// stable identity. Each retransmission's backed-off deadline is stretched by
// a pseudo-random 0..rto/4 cycles drawn from the per-hop stream, which
// de-synchronizes the retry storms that follow a shared fault without
// affecting retry counts or byte accounting.
func (r *Retrans) SetJitter(seed uint64) { r.jrng = sim.NewRNG(seed) }

// NewRetrans builds a retransmit buffer. send is invoked for every
// retransmission with a fresh Clone of the stored message (the stored copy
// stays authoritative).
func NewRetrans(eng *sim.Engine, rto0, rtoCap sim.Cycles, limitBytes uint64, send func(m *Message)) *Retrans {
	if rto0 == 0 {
		rto0 = 1
	}
	if rtoCap < rto0 {
		rtoCap = rto0
	}
	return &Retrans{eng: eng, rto0: rto0, rtoCap: rtoCap, limit: limitBytes, send: send}
}

// Track records m (already stamped with a hop sequence number) as awaiting
// acknowledgement. Tracking an already-tracked sequence number is idempotent:
// the deadline is reset but no duplicate entry is added, which makes the
// stamping call sites safe to re-traverse on retransmission.
func (r *Retrans) Track(m *Message) {
	for i := range r.entries {
		if r.entries[i].m.Seq == m.Seq {
			r.entries[i].deadline = r.eng.Now() + r.entries[i].rto
			r.arm()
			return
		}
	}
	r.entries = append(r.entries, rentry{m: m, deadline: r.eng.Now() + r.rto0, rto: r.rto0})
	r.bytes += m.Size()
	r.st.Tracked++
	r.arm()
}

// Ack removes the entry for seq. Unknown sequence numbers are ignored
// (late acks for already-resolved messages).
func (r *Retrans) Ack(seq uint32) {
	for i := range r.entries {
		if r.entries[i].m.Seq == seq {
			r.bytes -= r.entries[i].m.Size()
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			r.st.Acked++
			return
		}
	}
}

// Nack triggers an immediate retransmission of seq (checksum failure at the
// receiver) with its backoff advanced.
func (r *Retrans) Nack(seq uint32) {
	for i := range r.entries {
		if r.entries[i].m.Seq == seq {
			r.st.Nacked++
			r.resend(i)
			return
		}
	}
}

// resend retransmits entry i and advances its backoff. The send itself is
// deferred through the engine: delivery is synchronous all the way into the
// receiver, whose immediate ack/nack would otherwise mutate r.entries while
// sweep is iterating it (and a nack storm would recurse on the stack).
func (r *Retrans) resend(i int) {
	e := &r.entries[i]
	if r.trc != nil {
		if rec := r.trc(); rec.FlowsEnabled() {
			// The span covers the round-trip that just failed: from the
			// send whose ack window expired (deadline − rto) to now. A
			// nack-triggered resend has a future deadline; clamp to now.
			now := uint64(r.eng.Now())
			last := now
			if d := uint64(e.deadline); d <= now && d >= uint64(e.rto) {
				last = d - uint64(e.rto)
			}
			rec.Span(e.m.Flow, e.m.Span, trace.SpanRetx, trace.CatRetry, r.trcActor, last, now)
		}
	}
	e.rto *= 2
	if e.rto > r.rtoCap {
		e.rto = r.rtoCap
	}
	e.deadline = r.eng.Now() + e.rto
	if r.jrng != nil {
		e.deadline += sim.Cycles(r.jrng.Uint64n(uint64(e.rto/4) + 1))
	}
	r.st.Retries++
	m := e.m.Clone()
	// One cycle, not zero: a nack-triggered resend that stayed at the current
	// cycle would let a permanent corruption fault loop without ever advancing
	// simulated time, starving the watchdog's (future-scheduled) check.
	r.eng.After(1, func() { r.send(m) })
}

// Full reports whether the buffered bytes exceed the watermark; the sender
// must stop admitting new traffic to this hop until acks drain it.
func (r *Retrans) Full() bool { return r.bytes > r.limit }

// Len returns the number of unacked messages.
func (r *Retrans) Len() int { return len(r.entries) }

// Bytes returns the buffered byte count.
func (r *Retrans) Bytes() uint64 { return r.bytes }

// Stats returns the accumulated retry counters.
func (r *Retrans) Stats() RetransStats { return r.st }

// TakeAll removes and returns every pending entry's message. Used when the
// peer endpoint dies and the messages need terminal resolution instead of
// retransmission.
func (r *Retrans) TakeAll() []*Message {
	ms := make([]*Message, 0, len(r.entries))
	for i := range r.entries {
		ms = append(ms, r.entries[i].m)
	}
	r.entries = r.entries[:0]
	r.bytes = 0
	return ms
}

// Drop removes the entry for seq without acking (terminal resolution by the
// owner, e.g. the receiver died). Reports whether an entry was removed.
func (r *Retrans) Drop(seq uint32) bool {
	for i := range r.entries {
		if r.entries[i].m.Seq == seq {
			r.bytes -= r.entries[i].m.Size()
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return true
		}
	}
	return false
}

// arm schedules the timeout sweep if entries are pending and no sweep is
// scheduled. The sweep reschedules itself lazily: one outstanding timer per
// buffer, regardless of entry count.
func (r *Retrans) arm() {
	if r.armed || len(r.entries) == 0 {
		return
	}
	r.armed = true
	r.eng.At(r.nextDeadline(), r.sweep)
}

// nextDeadline returns the earliest entry deadline.
func (r *Retrans) nextDeadline() sim.Cycles {
	d := r.entries[0].deadline
	for i := 1; i < len(r.entries); i++ {
		if r.entries[i].deadline < d {
			d = r.entries[i].deadline
		}
	}
	return d
}

// sweep resends every entry whose deadline has passed, then re-arms.
func (r *Retrans) sweep() {
	r.armed = false
	now := r.eng.Now()
	for i := range r.entries {
		if r.entries[i].deadline <= now {
			r.resend(i)
		}
	}
	r.arm()
}

// Dedup is a receiver-side duplicate filter for one hop direction. Sequence
// numbers at or below the floor, or present in the seen set, are duplicates.
// Accepting seq == floor+1 advances the floor and compacts the set, so for
// in-order delivery the filter is O(1) space.
type Dedup struct {
	floor uint32
	seen  map[uint32]struct{}
	dups  uint64
}

// Accept reports whether seq is new, recording it. Duplicate sequence
// numbers return false and bump the Dups counter.
func (d *Dedup) Accept(seq uint32) bool {
	if seq <= d.floor {
		d.dups++
		return false
	}
	if _, ok := d.seen[seq]; ok {
		d.dups++
		return false
	}
	if seq == d.floor+1 {
		d.floor = seq
		// Compact: pull consecutive successors out of the set.
		for {
			if _, ok := d.seen[d.floor+1]; !ok {
				break
			}
			delete(d.seen, d.floor+1)
			d.floor++
		}
		return true
	}
	if d.seen == nil {
		d.seen = make(map[uint32]struct{})
	}
	d.seen[seq] = struct{}{}
	return true
}

// Mark records seq as already handled without counting a duplicate — used
// when the runtime resolves a message out of band (dead-unit recovery) and
// any copy still in flight must be silently discarded.
func (d *Dedup) Mark(seq uint32) {
	if seq <= d.floor {
		return
	}
	if d.seen == nil {
		d.seen = make(map[uint32]struct{})
	}
	if _, ok := d.seen[seq]; ok {
		return
	}
	d.seen[seq] = struct{}{}
	if seq == d.floor+1 {
		d.floor = seq
		delete(d.seen, seq)
		for {
			if _, ok := d.seen[d.floor+1]; !ok {
				break
			}
			delete(d.seen, d.floor+1)
			d.floor++
		}
	}
}

// Dups returns the number of duplicates filtered.
func (d *Dedup) Dups() uint64 { return d.dups }
