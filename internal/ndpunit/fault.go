package ndpunit

import (
	"ndpbridge/internal/msg"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
)

// This file holds the unit's fault-injection state: death and transient
// stalls, plus the unit's two endpoints of the link-layer retry protocol
// (sender of the gather hop, receiver of the scatter hop). All of it is
// gated on the ft pointer — a run without an attached fault plan never
// allocates it, so the hot paths pay one nil test and stay byte-identical
// to a build that predates fault injection.

// Parent is the level-1 bridge surface the unit's retry protocol talks to.
// Acks travel as direct calls: the acknowledgement sideband is modeled as
// reliable and instantaneous, like the DQS strobe handshake it abstracts.
type Parent interface {
	// GatherIn is the gather-hop wire: retransmitted mailbox messages
	// re-enter the bridge through it (hop faults apply per crossing).
	GatherIn(child int, m *msg.Message)
	// ScatterAck / ScatterNack acknowledge one scatter-hop delivery.
	ScatterAck(child int, seq uint32)
	ScatterNack(child int, seq uint32)
}

// faultState is the per-unit fault machinery, allocated by EnableFaults.
type faultState struct {
	dead         bool
	stalledUntil sim.Cycles
	wakeArmed    bool

	parent       Parent
	gatherSeq    uint32
	gatherRet    *msg.Retrans // unit → bridge (gather hop) retransmit buffer
	scatterDedup msg.Dedup    // bridge → unit (scatter hop) duplicate filter

	lost func(*msg.Message) // terminal-loss hook (core recovery)

	// Running-task shadow for kill rollback: runTask charges its counters
	// up front, so Extinguish can undo them and re-home the task.
	cur     *task.Task
	curBusy sim.Cycles
}

// Remains is everything a killed unit leaves behind for the recovery
// runtime: queued tasks to re-spawn, staged/mailboxed messages needing
// terminal resolution, and unacked gather-hop messages whose loss must be
// gated against late-arriving copies at the bridge.
type Remains struct {
	Tasks   []task.Task
	Msgs    []*msg.Message
	Unacked []*msg.Message
}

// EnableFaults allocates the unit's fault state. Idempotent.
func (u *Unit) EnableFaults() {
	if u.ft == nil {
		u.ft = &faultState{}
	}
}

// EnableRetry arms the unit's two retry-protocol endpoints against its
// parent bridge. Only bridge designs call it; the retransmission knobs come
// from cfg.Retry.
func (u *Unit) EnableRetry(parent Parent) {
	u.EnableFaults()
	u.ft.parent = parent
	cfg := u.cfg
	u.ft.gatherRet = msg.NewRetrans(u.eng, cfg.Retry.Timeout, cfg.Retry.BackoffCap,
		cfg.Retry.BufBytes, func(m *msg.Message) { parent.GatherIn(u.id, m) })
	u.ft.gatherRet.SetTrace(u.env.Trace, u.id)
	u.ft.gatherRet.SetJitter(msg.JitterSeed(1, uint64(u.id)))
}

// SetLostHook installs the terminal-loss callback invoked for every message
// the recovery runtime declares undeliverable.
func (u *Unit) SetLostHook(fn func(*msg.Message)) {
	u.EnableFaults()
	u.ft.lost = fn
}

// Dead reports whether the unit has been killed.
func (u *Unit) Dead() bool { return u.ft != nil && u.ft.dead }

// Stall freezes the compute pipeline until the given cycle: the running
// task completes, the mailbox stays reachable, but no new task starts. The
// caller should Kick afterwards so an idle unit arms its wake-up.
func (u *Unit) Stall(until sim.Cycles) {
	u.EnableFaults()
	if until > u.ft.stalledUntil {
		u.ft.stalledUntil = until
	}
}

// Extinguish kills the unit and evacuates everything recoverable. The unit
// stops executing, refuses gathers and new work, and resolves deliveries
// through the lost hook. The task running at kill time force-completes (its
// side effects were applied at start; see below), while queued tasks ride
// along in Remains.Tasks for exactly-once re-spawn elsewhere.
func (u *Unit) Extinguish() Remains {
	u.EnableFaults()
	var r Remains
	if u.ft.dead {
		return r
	}
	u.ft.dead = true

	r.Tasks = u.queue.DrainAll()
	if u.rq != nil {
		for _, t := range u.rq.Drain() {
			r.Tasks = append(r.Tasks, t)
		}
		u.rqWorkload = 0
	}
	if u.running && u.ft.cur != nil {
		// The running task applied its side effects — memory accesses,
		// child spawns — synchronously when it started, so replaying it
		// elsewhere would double-apply them (and double-spawn its
		// children, whose first copies are being recovered from the
		// staged/mailbox messages below). Force its completion instead:
		// the work survives the kill, only the unit is lost. The
		// completion event still pending in the engine no-ops for dead
		// units, so TaskDone fires exactly once.
		t := *u.ft.cur
		u.ft.cur = nil
		u.env.TaskDone(t.TS)
	}
	u.running = false

	r.Msgs = append(r.Msgs, u.staged...)
	u.staged = nil
	for {
		m, ok := u.mb.Dequeue()
		if !ok {
			break
		}
		r.Msgs = append(r.Msgs, m)
	}
	if u.chipMail != nil {
		for {
			m, ok := u.chipMail.Dequeue()
			if !ok {
				break
			}
			r.Msgs = append(r.Msgs, m)
		}
	}
	if u.ft.gatherRet != nil {
		r.Unacked = u.ft.gatherRet.TakeAll()
	}
	return r
}

// AdoptTask re-homes a recovered task without re-spawning accounting: the
// original spawn still holds the epoch's outstanding count, so the adopted
// copy must complete exactly once. Tasks whose block is lent out re-enter
// the fabric as fresh messages.
func (u *Unit) AdoptTask(t task.Task) {
	t.SpawnedAt = u.eng.Now()
	if _, local := u.localOffset(t.Addr); !local {
		u.emit(u.taskMessage(t, u.env.Map().Home(t.Addr) == u.id))
		u.flushStaged()
		return
	}
	u.acceptTask(t)
	u.tryStart()
}

// RecoverLent heals the isLent bit for a block whose borrowed copy was lost
// with a dead unit: the home copy becomes authoritative again.
func (u *Unit) RecoverLent(blk uint64) bool {
	if u.env.Map().HomeRaw(blk) != u.id {
		return false
	}
	if u.isLent.SetLent(u.env.Map().Offset(blk), false) {
		u.tryStart()
		return true
	}
	return false
}

// MarkSeqHandled claims terminal resolution of one scatter-hop sequence
// number. It returns true exactly once per seq — the caller that wins the
// claim runs the lost hook; any copy still in flight is silently discarded
// by the dedup filter. Used when the sender resolves a message to a dead
// unit out of band.
func (u *Unit) MarkSeqHandled(seq uint32) bool {
	if u.ft == nil {
		return true
	}
	return u.ft.scatterDedup.Accept(seq)
}

// AckGather and NackGather are the bridge's acknowledgement sideband for
// the gather hop.
func (u *Unit) AckGather(seq uint32) {
	if u.ft != nil && u.ft.gatherRet != nil {
		u.ft.gatherRet.Ack(seq)
	}
}

// NackGather triggers an immediate retransmission of a corrupted gather.
func (u *Unit) NackGather(seq uint32) {
	if u.ft != nil && u.ft.gatherRet != nil {
		u.ft.gatherRet.Nack(seq)
	}
}

// RetryStats returns the unit's gather-hop retransmission counters and the
// scatter-hop duplicates filtered.
func (u *Unit) RetryStats() (msg.RetransStats, uint64) {
	if u.ft == nil {
		return msg.RetransStats{}, 0
	}
	var rs msg.RetransStats
	if u.ft.gatherRet != nil {
		rs = u.ft.gatherRet.Stats()
	}
	return rs, u.ft.scatterDedup.Dups()
}
