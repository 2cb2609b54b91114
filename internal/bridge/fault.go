package bridge

import (
	"ndpbridge/internal/fault"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/trace"
)

// This file holds the bridges' fault-injection machinery: the per-hop fault
// application helper shared by both levels, and the level-1/level-2 retry
// endpoints (sequence stamping, retransmit buffers, duplicate filters,
// dead-child bookkeeping, injected buffer overflow). Everything is gated on
// the fi pointers, which stay nil — and cost one branch — when no fault
// plan is attached.

// applyOutcome delivers m through a hop-fault verdict. Drop short-circuits;
// delay defers the delivery through the engine; corrupt delivers a damaged
// clone so the sender's retransmit copy stays pristine; duplicate delivers
// a second clone for the receiver's dedup filter to discard.
func applyOutcome(eng *sim.Engine, o fault.Outcome, m *msg.Message, deliver func(*msg.Message)) {
	if o.Drop {
		return
	}
	send := deliver
	if o.Delay != 0 {
		send = func(mm *msg.Message) { eng.After(o.Delay, func() { deliver(mm) }) }
	}
	// Clone the duplicate before the first delivery: on a zero-delay hop the
	// receiver runs synchronously and clears Seq/Sum in place, and a copy
	// cloned after that would slip past the sequence-number dedup filter.
	var dup *msg.Message
	if o.Duplicate {
		dup = m.Clone()
	}
	if o.Corrupt {
		c := m.Clone()
		c.Corrupt()
		send(c)
	} else {
		send(m)
	}
	if dup != nil {
		send(dup)
	}
}

// faultL1 is the level-1 bridge's fault state.
type faultL1 struct {
	gatherHop  *fault.Hop // unit → bridge
	scatterHop *fault.Hop // bridge → unit
	downHop    *fault.Hop // level-2 → this bridge

	// Retry endpoints; nil slices/pointers when the design runs no retry.
	gatherDedup []msg.Dedup    // per child, gather-hop duplicate filter
	scatterSeq  []uint32       // per child, scatter-hop sequence counters
	scatterRet  []*msg.Retrans // per child, scatter-hop retransmit buffers
	upSeq       uint32
	upRet       *msg.Retrans // up-hop retransmit buffer
	downDedup   msg.Dedup    // down-hop duplicate filter

	dead        []bool
	extraBackup uint64 // injected phantom backlog (overflow faults)
	lost        func(*msg.Message)
}

// EnableFaults attaches the injector's hop streams for this rank and, when
// retry is set, arms the bridge's retry-protocol endpoints. lost is the
// terminal-loss hook of the recovery runtime.
func (b *Level1) EnableFaults(inj *fault.Injector, retry bool, lost func(*msg.Message)) {
	cfg := b.cfg
	fi := &faultL1{
		gatherHop:  inj.HopFor(fault.ScopeL1Gather, b.rank),
		scatterHop: inj.HopFor(fault.ScopeL1Scatter, b.rank),
		downHop:    inj.HopFor(fault.ScopeL2Down, b.rank),
		dead:       make([]bool, len(b.children)),
		lost:       lost,
	}
	if retry {
		fi.gatherDedup = make([]msg.Dedup, len(b.children))
		fi.scatterSeq = make([]uint32, len(b.children))
		fi.scatterRet = make([]*msg.Retrans, len(b.children))
		for i := range b.children {
			idx := i
			fi.scatterRet[i] = msg.NewRetrans(b.eng, cfg.Retry.Timeout, cfg.Retry.BackoffCap,
				cfg.Retry.BufBytes, func(m *msg.Message) { b.wireScatter(idx, m) })
			fi.scatterRet[i].SetTrace(b.env.Trace, b.children[i].ID())
			fi.scatterRet[i].SetJitter(msg.JitterSeed(2, uint64(b.children[i].ID())))
		}
		fi.upRet = msg.NewRetrans(b.eng, cfg.Retry.Timeout, cfg.Retry.BackoffCap,
			cfg.Retry.BufBytes, func(m *msg.Message) { b.pushUp(m) })
		fi.upRet.SetTrace(b.env.Trace, -1)
		fi.upRet.SetJitter(msg.JitterSeed(3, uint64(b.rank)))
	}
	b.fi = fi
}

// Kick revives the bridge's bus loop (recovery runtime hook).
func (b *Level1) Kick() { b.ensureLoop() }

// InjectOverflow adds phantom backlog to the backup buffer, tripping the
// gather-pause backpressure threshold.
func (b *Level1) InjectOverflow(bytes uint64) {
	if b.fi != nil {
		b.fi.extraBackup += bytes
	}
}

// ClearOverflow removes previously injected phantom backlog.
func (b *Level1) ClearOverflow(bytes uint64) {
	if b.fi == nil {
		return
	}
	if bytes > b.fi.extraBackup {
		bytes = b.fi.extraBackup
	}
	b.fi.extraBackup -= bytes
	b.ensureLoop()
}

// GatherIn is the gather-hop wire entry for unit retransmissions: the
// message crosses the hop (faults apply) and re-enters the router.
func (b *Level1) GatherIn(child int, m *msg.Message) {
	b.gatherIn(b.localIndex(child), m)
}

// gatherIn moves one gathered message across the (possibly faulty) hop.
func (b *Level1) gatherIn(idx int, m *msg.Message) {
	if b.fi == nil {
		b.route(m)
		return
	}
	if h := b.fi.gatherHop; h != nil {
		applyOutcome(b.eng, h.Decide(b.eng.Now()), m,
			func(mm *msg.Message) { b.acceptGather(idx, mm) })
		return
	}
	b.acceptGather(idx, m)
}

// acceptGather is the bridge-side receiver of the gather hop: verify, ack,
// dedup, then route.
func (b *Level1) acceptGather(idx int, m *msg.Message) {
	if m.Seq != 0 && b.fi.gatherDedup != nil {
		u := b.children[idx]
		if !m.Verify() {
			u.NackGather(m.Seq)
			return
		}
		u.AckGather(m.Seq)
		if !b.fi.gatherDedup[idx].Accept(m.Seq) {
			return
		}
		m.Seq, m.Sum = 0, 0
	}
	b.route(m)
	b.ensureLoop()
}

// wireScatter moves one message across the scatter hop to child idx.
func (b *Level1) wireScatter(idx int, m *msg.Message) {
	if b.fi.dead[idx] {
		// Retransmission raced a kill: claim terminal resolution once.
		if b.children[idx].MarkSeqHandled(m.Seq) && b.fi.lost != nil {
			b.fi.lost(m)
		}
		return
	}
	if h := b.fi.scatterHop; h != nil {
		applyOutcome(b.eng, h.Decide(b.eng.Now()), m,
			func(mm *msg.Message) { b.children[idx].Deliver(mm) })
		return
	}
	b.children[idx].Deliver(m)
}

// ScatterAck and ScatterNack implement ndpunit.Parent: the unit's
// acknowledgement sideband for scatter deliveries.
func (b *Level1) ScatterAck(child int, seq uint32) {
	if b.fi != nil && b.fi.scatterRet != nil {
		b.fi.scatterRet[b.localIndex(child)].Ack(seq)
	}
}

// ScatterNack triggers an immediate retransmission of a corrupted scatter.
func (b *Level1) ScatterNack(child int, seq uint32) {
	if b.fi != nil && b.fi.scatterRet != nil {
		b.fi.scatterRet[b.localIndex(child)].Nack(seq)
	}
}

// AckUp and NackUp are the level-2 bridge's acknowledgement sideband for
// the up hop.
func (b *Level1) AckUp(seq uint32) {
	if b.fi != nil && b.fi.upRet != nil {
		b.fi.upRet.Ack(seq)
	}
}

// NackUp triggers an immediate retransmission of a corrupted up message.
func (b *Level1) NackUp(seq uint32) {
	if b.fi != nil && b.fi.upRet != nil {
		b.fi.upRet.Nack(seq)
	}
}

// MarkGathered gates the loss resolution of a dead child's unacked gather
// message: a delayed copy still in flight toward this bridge is discarded
// instead of being processed twice.
func (b *Level1) MarkGathered(child int, seq uint32) {
	if b.fi != nil && b.fi.gatherDedup != nil {
		b.fi.gatherDedup[b.localIndex(child)].Mark(seq)
	}
}

// KillChild quarantines one child and returns every message whose delivery
// can no longer complete: unacked scatter messages (gated against copies
// still in flight), the child's parked scatter buffer, and backup-buffer
// entries addressed to it. The caller resolves them terminally.
func (b *Level1) KillChild(child int) []*msg.Message {
	if b.fi == nil {
		return nil
	}
	idx := b.localIndex(child)
	b.fi.dead[idx] = true
	var lost []*msg.Message
	if b.fi.scatterRet != nil {
		for _, m := range b.fi.scatterRet[idx].TakeAll() {
			if b.children[idx].MarkSeqHandled(m.Seq) {
				lost = append(lost, m)
			}
		}
	}
	lost = append(lost, b.scatter[idx]...)
	b.scatter[idx] = nil
	b.scatterBytes[idx] = 0
	if len(b.backup) > 0 {
		keep := b.backup[:0]
		for _, m := range b.backup {
			if m.Dst == child {
				b.backupBytes -= m.Size()
				lost = append(lost, m)
			} else {
				keep = append(keep, m)
			}
		}
		b.backup = keep
	}
	delete(b.toArrive, child)
	return lost
}

// PurgeBorrowedTo removes every dataBorrowed entry pointing at a dead child
// and returns the affected block addresses so the recovery runtime can heal
// the lenders' isLent bits.
func (b *Level1) PurgeBorrowedTo(child int) []uint64 {
	var blks []uint64
	b.borrowed.ForEach(func(k, v uint64) {
		if int(v) == child {
			blks = append(blks, k)
		}
	})
	for _, blk := range blks {
		b.borrowed.Remove(blk)
	}
	return blks
}

// DropBorrowed removes the dataBorrowed entry for blk, if any (recovery of
// a lend whose data messages were lost in transit).
func (b *Level1) DropBorrowed(blk uint64) { b.borrowed.Remove(blk) }

// RetryStats aggregates the bridge's retransmission counters (scatter + up
// hops) and the duplicates filtered on its receive sides.
func (b *Level1) RetryStats() (msg.RetransStats, uint64) {
	var rs msg.RetransStats
	var dups uint64
	if b.fi == nil {
		return rs, 0
	}
	add := func(s msg.RetransStats) {
		rs.Tracked += s.Tracked
		rs.Acked += s.Acked
		rs.Nacked += s.Nacked
		rs.Retries += s.Retries
	}
	for _, r := range b.fi.scatterRet {
		add(r.Stats())
	}
	if b.fi.upRet != nil {
		add(b.fi.upRet.Stats())
	}
	for i := range b.fi.gatherDedup {
		dups += b.fi.gatherDedup[i].Dups()
	}
	dups += b.fi.downDedup.Dups()
	return rs, dups
}

// faultL2 is the level-2 bridge's fault state.
type faultL2 struct {
	upHop   []*fault.Hop // per rank, level-1 → level-2
	upDedup []msg.Dedup  // per rank
	downSeq []uint32     // per rank
	downRet []*msg.Retrans
}

// EnableFaults attaches the injector's up-hop streams and, when retry is
// set, the level-2 ends of the up/down retry protocol.
func (l *Level2) EnableFaults(inj *fault.Injector, retry bool) {
	cfg := l.cfg
	fi := &faultL2{upHop: make([]*fault.Hop, len(l.bridges))}
	for r := range l.bridges {
		fi.upHop[r] = inj.HopFor(fault.ScopeL1Up, r)
	}
	if retry {
		fi.upDedup = make([]msg.Dedup, len(l.bridges))
		fi.downSeq = make([]uint32, len(l.bridges))
		fi.downRet = make([]*msg.Retrans, len(l.bridges))
		for r := range l.bridges {
			rank := r
			fi.downRet[r] = msg.NewRetrans(l.eng, cfg.Retry.Timeout, cfg.Retry.BackoffCap,
				cfg.Retry.BufBytes, func(m *msg.Message) { l.pushDown(rank, m) })
			fi.downRet[r].SetTrace(l.env.Trace, -1)
			fi.downRet[r].SetJitter(msg.JitterSeed(4, uint64(r)))
		}
	}
	l.fi = fi
}

// DropBorrowed removes the cross-rank dataBorrowed entry for blk, if any
// (recovery of a lend whose borrower died).
func (l *Level2) DropBorrowed(blk uint64) { l.borrowed.Remove(blk) }

// AckDown and NackDown implement the upLevel acknowledgement sideband for
// down-hop deliveries.
func (l *Level2) AckDown(rank int, seq uint32) {
	if l.fi != nil && l.fi.downRet != nil {
		l.fi.downRet[rank].Ack(seq)
	}
}

// NackDown triggers an immediate retransmission of a corrupted down message.
func (l *Level2) NackDown(rank int, seq uint32) {
	if l.fi != nil && l.fi.downRet != nil {
		l.fi.downRet[rank].Nack(seq)
	}
}

// acceptUp moves one gathered up message across the (possibly faulty) hop
// from rank r.
func (l *Level2) acceptUp(r int, m *msg.Message) {
	if l.fi != nil {
		if h := l.fi.upHop[r]; h != nil {
			applyOutcome(l.eng, h.Decide(l.eng.Now()), m,
				func(mm *msg.Message) { l.commitUp(r, mm) })
			return
		}
	}
	l.commitUp(r, m)
}

// commitUp is the level-2 receiver of the up hop: verify, ack, dedup, route.
func (l *Level2) commitUp(r int, m *msg.Message) {
	if l.fi != nil && m.Seq != 0 {
		if !m.Verify() {
			l.bridges[r].NackUp(m.Seq)
			return
		}
		l.bridges[r].AckUp(m.Seq)
		if l.fi.upDedup != nil && !l.fi.upDedup[r].Accept(m.Seq) {
			return
		}
		m.Seq, m.Sum = 0, 0
	}
	if rec := l.env.Trace(); rec.FlowsEnabled() {
		// Up-channel leg: level-1 drain → level-2 commit (channel batch).
		now := l.eng.Now()
		cat := trace.CatHostRT
		if m.Sched || m.Round != 0 {
			cat = trace.CatLBMigration
		}
		m.Span = rec.Span(m.Flow, m.Span, trace.SpanBridgeQ, cat, -1, m.HopStart(), now)
		m.HopAt = now
	}
	l.routeUp(m)
}

// RetryStats aggregates the level-2 retransmission counters (down hop) and
// the duplicates filtered on the up hop.
func (l *Level2) RetryStats() (msg.RetransStats, uint64) {
	var rs msg.RetransStats
	var dups uint64
	if l.fi == nil {
		return rs, 0
	}
	for _, r := range l.fi.downRet {
		s := r.Stats()
		rs.Tracked += s.Tracked
		rs.Acked += s.Acked
		rs.Nacked += s.Nacked
		rs.Retries += s.Retries
	}
	for i := range l.fi.upDedup {
		dups += l.fi.upDedup[i].Dups()
	}
	return rs, dups
}
