package ndpunit

import (
	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/task"
)

// SnapshotTo encodes the unit's complete mutable state: execution position
// (RNG, running flag, counters), the task queue, both mailboxes, staged
// messages, migration metadata, sketch and reserved queue, DRAM bank timing,
// cache contents, and — on fault runs — the retry-protocol endpoint state.
// Structural configuration (bank geometry, mailbox capacity, DRAM layout
// offsets) is derived from the config and not encoded.
func (u *Unit) SnapshotTo(e *checkpoint.Enc) {
	e.I64(int64(u.id))
	e.Bool(u.running)
	e.U64(u.rng.State())
	e.U64(u.finishedWorkload)
	e.U64(u.rqWorkload)
	e.U64(u.hits64)
	e.U64(u.lastBounce)

	e.U64(u.st.Busy)
	e.U64(u.st.Tasks)
	e.U64(u.st.Spawned)
	e.U64(u.st.MsgsOut)
	e.U64(u.st.MsgsIn)
	e.U64(u.st.Stalls)
	e.U64(u.st.Bounces)
	e.U64(u.st.Borrowed)
	e.U64(u.st.Lent)
	e.U64(u.st.Returns)

	u.queue.SnapshotTo(e)
	u.mb.SnapshotTo(e)
	e.Bool(u.chipMail != nil)
	if u.chipMail != nil {
		u.chipMail.SnapshotTo(e)
	}
	e.U32(uint32(len(u.staged)))
	for _, m := range u.staged {
		msg.EncodeSnapshot(e, m)
	}

	u.isLent.SnapshotTo(e)
	u.borrowed.SnapshotTo(e)
	u.snapshotSlots(e)

	e.Bool(u.sk != nil)
	if u.sk != nil {
		u.sk.SnapshotTo(e)
	}
	e.Bool(u.rq != nil)
	if u.rq != nil {
		u.rq.SnapshotTo(e)
	}
	e.U32(uint32(len(u.schedOut)))
	for _, so := range u.schedOut {
		e.U64(so.BlockAddr)
		e.U64(so.Workload)
	}

	u.bank.SnapshotTo(e)
	u.cache.snapshotTo(e)

	e.Bool(u.ft != nil)
	if u.ft == nil {
		return
	}
	e.Bool(u.ft.dead)
	e.U64(u.ft.stalledUntil)
	e.Bool(u.ft.wakeArmed)
	e.U32(u.ft.gatherSeq)
	e.Bool(u.ft.gatherRet != nil)
	if u.ft.gatherRet != nil {
		u.ft.gatherRet.SnapshotTo(e)
	}
	u.ft.scatterDedup.SnapshotTo(e)
	e.Bool(u.ft.cur != nil)
	if u.ft.cur != nil {
		task.EncodeTask(e, *u.ft.cur)
		e.U64(u.ft.curBusy)
	}
}

// snapshotSlots encodes the free-slot stack. A unit that has never borrowed
// (or returned every borrow in LIFO order) holds the stack in its
// construction-time layout — slot j carrying offset borrowedOff +
// (nSlots-1-j)·G_xfer — so the encoding records the stack length, the length
// of the prefix still matching that layout, and then only the churned tail
// explicitly. The common case costs two integers instead of thousands of
// offsets; any pop/push history is still captured exactly because order
// (which steers future allocations) is preserved.
// The stack is stored in two parts (virtual pristine prefix + explicit freed
// tail; see the Unit field comment), so the logical stack is reconstituted on
// the fly. The pristine prefix matches the construction layout by definition;
// the scan continues into the freed tail because a freed slot can land on a
// position whose layout value it happens to equal, and the encoding must stay
// byte-identical to the former eager-stack encoder.
func (u *Unit) snapshotSlots(e *checkpoint.Enc) {
	stride := u.gxfer()
	total := u.slotTotal
	pristine := int(total - u.slotNext)
	logical := pristine + len(u.slots)
	e.U32(uint32(logical))
	p := pristine
	for p < logical && u.slots[p-pristine] == u.borrowedOff+(total-1-uint64(p))*stride {
		p++
	}
	e.U32(uint32(p))
	for _, s := range u.slots[p-pristine:] {
		e.U64(s)
	}
}

// snapshotTo encodes the cache's line array, LRU clock, and hit counters.
// Tags and LRU stamps go as varints: the line array is the single largest
// blob in a unit snapshot (every cache is warm in steady state), and both
// fields are small-valued — tags are bank offsets shifted down by lineBits,
// stamps are bounded by the access clock. The line array is lazily
// materialized, so its length (zero for a never-accessed cache) is encoded
// explicitly; materialization is a deterministic function of execution, so
// replayed runs still digest identically.
func (c *Cache) snapshotTo(e *checkpoint.Enc) {
	e.U32(uint32(c.sets))
	e.U32(uint32(c.ways))
	e.U32(uint32(c.lineBits))
	e.U64(c.clock)
	e.U64(c.hits)
	e.U64(c.misses)
	touched := false
	for _, g := range c.groups {
		if g != nil {
			touched = true
			break
		}
	}
	if !touched {
		e.U32(0)
		return
	}
	// Encode the logical set×way array. Unmaterialized groups are all
	// invalid lines, so emitting zero lines for them keeps the stream
	// byte-identical to the former whole-array encoder.
	e.U32(uint32(c.sets * c.ways))
	var zero cline
	for set := 0; set < c.sets; set++ {
		grp := c.groups[set/setGroup]
		for w := 0; w < c.ways; w++ {
			l := &zero
			if grp != nil {
				l = &grp[(set%setGroup)*c.ways+w]
			}
			e.Bool(l.valid())
			tag := l.tagP1
			if tag != 0 {
				tag--
			}
			e.UVarint(tag)
			e.UVarint(l.lru)
		}
	}
}

// PendingMsgs returns the number of messages physically held by the unit —
// staged for mailbox space plus enqueued in the mailbox(es) — for the
// auditor's structural in-flight accounting.
func (u *Unit) PendingMsgs() int {
	n := len(u.staged) + u.mb.Len()
	if u.chipMail != nil {
		n += u.chipMail.Len()
	}
	return n
}

// LentCount returns the number of blocks this unit has lent out, per its
// isLent metadata.
func (u *Unit) LentCount() int { return u.isLent.Count() }

// BorrowedCount returns the number of blocks this unit currently borrows.
func (u *Unit) BorrowedCount() int { return u.borrowed.Len() }

// GatherSeq returns the unit's gather-hop sender sequence counter (zero when
// faults are off), for the auditor's monotonicity check.
func (u *Unit) GatherSeq() uint32 {
	if u.ft == nil {
		return 0
	}
	return u.ft.gatherSeq
}

// RetransPending returns the number of unacked gather-hop messages (zero
// when faults are off).
func (u *Unit) RetransPending() int {
	if u.ft == nil || u.ft.gatherRet == nil {
		return 0
	}
	return u.ft.gatherRet.Len()
}
