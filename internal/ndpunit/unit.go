// Package ndpunit models one NDP unit of a DRAM-bank NDP system
// (Section V-A, Figure 4(b)): a wimpy in-order core with an L1 cache, a DRAM
// bank behind an access arbiter, and the extended unit controller holding the
// task queue, the mailbox region, the borrowed data region, the isLent /
// dataBorrowed migration metadata, and the sketch + reserved queue used for
// hot-data load balancing.
//
// Units are passive with respect to communication: the parent bridge (or the
// host forwarder in baseline designs) drains their mailboxes with GATHER,
// delivers messages with SCATTER, reads their state with STATE-GATHER, and
// commands load-balancing with SCHEDULE. All of those entry points charge
// bank time through the access arbiter.
package ndpunit

import (
	"fmt"

	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/mailbox"
	"ndpbridge/internal/metadata"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/sketch"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/task"
	"ndpbridge/internal/trace"
)

// Env is the runtime environment a unit operates in, implemented by the
// system orchestrator. It provides global services: the event engine, the
// configuration, the address map, the task registry, and the bulk-sync epoch
// accounting.
type Env interface {
	Engine() *sim.Engine
	Cfg() *config.Config
	Map() *dram.AddrMap
	Registry() *task.Registry
	CurrentEpoch() uint32
	// TaskSpawned/TaskDone maintain the per-epoch outstanding-task counts
	// used for bulk-sync termination detection.
	TaskSpawned(ts uint32)
	TaskDone(ts uint32)
	// MsgStaged/MsgDelivered maintain the in-flight message count, which
	// must reach zero before an epoch can end.
	MsgStaged()
	MsgDelivered()
	// NextTaskID returns a run-unique task identifier. Fault recovery
	// dedups re-spawned tasks by it so each executes exactly once.
	NextTaskID() uint64
	// Trace returns the activity recorder, or nil when tracing is off.
	Trace() *trace.Recorder
	// MsgPool returns the run's message pool (nil for a private pool).
	MsgPool() *msg.Pool
}

// taskRecordBytes is the DRAM footprint of one task queue record.
const taskRecordBytes = 32

// inboxEntry is one delivered-but-uncommitted message in a unit's inbox: the
// bank commit cycle, the engine sequence number reserved at Deliver time, and
// the message itself.
type inboxEntry struct {
	at  sim.Cycles
	seq uint64
	m   *msg.Message
}

// schedSel is one block selected by CommandSchedule together with its tasks
// and their summed workload.
type schedSel struct {
	blk   uint64
	tasks []task.Task
	w     uint64
}

// Unit is one NDP unit.
type Unit struct {
	id  int
	env Env //ndplint:nosnap simulation wiring, rebound at construction
	// eng/cfg cache env.Engine()/env.Cfg() — both stable for the system's
	// lifetime — so hot paths skip the interface dispatch.
	eng *sim.Engine    //ndplint:nosnap cached wiring, set at construction
	cfg *config.Config //ndplint:nosnap cached wiring, set at construction

	bank  *dram.Bank
	cache *Cache
	queue *task.Queue
	mb    *mailbox.Mailbox
	// chipMail holds same-chip messages in design R, where RowClone
	// serves intra-chip transfers and only cross-chip traffic goes
	// through host forwarding.
	chipMail *mailbox.Mailbox

	isLent   *metadata.IsLent
	borrowed *metadata.Borrowed
	// The free borrowed-region slot stack is kept in two parts so a unit
	// that never borrows allocates nothing: a virtual pristine prefix of
	// never-used slots (slotNext counts how many have been handed out;
	// offsets ascend from borrowedOff) and an explicit stack of freed
	// slots sitting logically on top of it. Pop order is identical to the
	// former eager stack: freed slots LIFO first, then pristine ascending.
	slots     []uint64 // freed slot offsets (stack top)
	slotNext  uint64   // pristine slots handed out so far
	slotTotal uint64   // total slots in the borrowed region

	sk         *sketch.Sketch
	rq         *sketch.ReservedQueue
	rqWorkload uint64

	rng *sim.RNG

	running bool
	staged  []*msg.Message // outgoing messages waiting for mailbox space

	// pool recycles task/data messages (see msg.Pool). Allocation always
	// draws from it; freeing is suppressed on fault runs, where retry
	// layers hold message pointers past delivery.
	pool *msg.Pool //ndplint:nosnap memory recycling, carries no model state

	// inbox is the batched-delivery queue: messages whose bank write has
	// been charged, waiting for their commit cycle. Each entry carries the
	// engine seq reserved at Deliver time; one dispatch event is in flight
	// whenever the inbox is non-empty, scheduled under the head entry's
	// (cycle, seq) so execution order is identical to per-message
	// scheduling. Undelivered messages hold the epoch open, so the inbox
	// is provably empty at every bulk-sync barrier.
	inbox     []inboxEntry //ndplint:nosnap empty at barrier checkpoints, like the engine queue
	inboxHead int          //ndplint:nosnap empty at barrier checkpoints
	inboxFn   func()       //ndplint:nosnap wiring, rebound at construction
	// legacyDeliver restores one engine event per delivered message (the
	// pre-inbox path); the event-core equivalence tests run both.
	legacyDeliver bool //ndplint:nosnap test toggle, not model state

	// Reused hot-path scratch: the single in-flight execution context and
	// its completion event, and the SCHEDULE selection buffers.
	ctx        execCtx        //ndplint:nosnap live only inside one runTask call
	curTS      uint32         //ndplint:nosnap shadow of the running task's epoch, dead when idle
	taskDoneFn func()         //ndplint:nosnap wiring, rebound at construction
	splitBuf   []*msg.Message //ndplint:nosnap scratch, empty between calls
	selBuf     []schedSel     //ndplint:nosnap scratch, empty between calls
	byBlock    map[uint64]int //ndplint:nosnap scratch, cleared between calls
	taskBuf    []task.Task    //ndplint:nosnap scratch for reserved-queue takes
	skipBuf    []task.Task    //ndplint:nosnap scratch, empty between calls

	// DRAM layout offsets within the bank.
	mailboxOff  uint64 //ndplint:nosnap layout constant from config
	borrowedOff uint64
	queueOff    uint64 //ndplint:nosnap layout constant from config

	finishedWorkload uint64
	schedOut         []msg.SchedOut

	st stats.Unit

	hits64     uint64 // SRAM access approximation counter
	lastBounce uint64 // most recent bounced task address, for diagnostics

	// ft is the fault-injection state; nil (the common case) keeps every
	// fault hook a single-branch no-op.
	ft *faultState
}

// QueueLen returns the number of tasks waiting in the unit's queues (main
// plus reserved), for the ready-queue depth gauge.
func (u *Unit) QueueLen() int {
	n := u.queue.Len()
	if u.rq != nil {
		n += u.rq.Total()
	}
	return n
}

// New builds a unit. rng must be a dedicated stream for this unit.
func New(id int, env Env, rng *sim.RNG) *Unit {
	cfg := env.Cfg()
	u := &Unit{
		id:    id,
		env:   env,
		eng:   env.Engine(),
		cfg:   cfg,
		bank:  dram.NewBank(cfg.Timing),
		cache: NewCache(64<<10, 4, 64),
		queue: task.NewQueue(),
		mb:    mailbox.New(cfg.Buffers.MailboxBytes),
		rng:   rng,
	}
	u.isLent = metadata.NewIsLent(cfg.Geometry.BankBytes, cfg.GXfer)
	u.borrowed = metadata.NewBorrowed(cfg.Metadata.UnitBorrowedEntries, cfg.Metadata.UnitBorrowedWays)
	u.mailboxOff = cfg.Geometry.BankBytes - cfg.Buffers.MailboxBytes
	u.borrowedOff = u.mailboxOff - cfg.Metadata.BorrowedRegionBytes
	u.queueOff = u.borrowedOff - (64 << 10)

	u.slotTotal = cfg.Metadata.BorrowedRegionBytes / cfg.GXfer

	if cfg.Design == config.DesignR {
		u.chipMail = mailbox.New(cfg.Buffers.MailboxBytes)
	}
	if u.hotEnabled() {
		u.sk = sketch.New(cfg.Sketch.Buckets, cfg.Sketch.EntriesPerBkt, cfg.Sketch.DecayBase, rng.Split())
		chunkTasks := int(cfg.GXfer) / taskRecordBytes
		if chunkTasks < 1 {
			chunkTasks = 1
		}
		u.rq = sketch.NewReservedQueue(cfg.Sketch.ReservedChunks, chunkTasks)
	}
	u.pool = env.MsgPool()
	if u.pool == nil {
		u.pool = msg.NewPool()
	}
	u.inboxFn = u.inboxFire
	u.taskDoneFn = u.taskDone
	return u
}

// SetLegacyDeliver switches the unit back to one engine event per delivered
// message instead of the batched inbox. The event-core equivalence tests run
// both paths and require identical results.
func (u *Unit) SetLegacyDeliver(on bool) { u.legacyDeliver = on }

func (u *Unit) hotEnabled() bool {
	cfg := u.cfg
	return cfg.Design.LoadBalancing() && cfg.LoadBalance.Hot
}

// ID returns the unit's system-wide ID.
func (u *Unit) ID() int { return u.id }

// Bank exposes the unit's DRAM bank for stats collection.
func (u *Unit) Bank() *dram.Bank { return u.bank }

// Cache exposes the L1 model for stats collection.
func (u *Unit) Cache() *Cache { return u.cache }

// Stats returns the unit's counters.
func (u *Unit) Stats() stats.Unit { return u.st }

// SRAMAccesses approximates the number of SRAM accesses performed.
func (u *Unit) SRAMAccesses() uint64 {
	h, m := u.cache.Stats()
	return h + m + u.hits64
}

func (u *Unit) gxfer() uint64 { return u.cfg.GXfer }

func (u *Unit) block(addr uint64) uint64 { return dram.BlockAlign(addr, u.gxfer()) }

// localOffset resolves addr to a bank offset if the data is locally
// available: in the home region and not lent, or present in the borrowed
// region. The second return is false when the data is not local.
func (u *Unit) localOffset(addr uint64) (uint64, bool) {
	m := u.env.Map()
	if m.Home(addr) == u.id {
		off := m.Offset(addr)
		if !u.isLent.Lent(off) {
			return off, true
		}
		if u.ft != nil && m.HomeRaw(addr) != u.id {
			// Adopted range of a dead unit: the buddy serves it
			// unconditionally — the isLent bit at this offset
			// describes the buddy's own block, not the adopted one.
			return off, true
		}
		return 0, false
	}
	blk := u.block(addr)
	if slot, ok := u.borrowed.Lookup(blk); ok {
		u.hits64++
		return slot + (addr - blk), true
	}
	return 0, false
}

// IsLocal reports whether addr's data is currently available at this unit.
func (u *Unit) IsLocal(addr uint64) bool {
	_, ok := u.localOffset(addr)
	return ok
}

// SeedTask injects an initial task directly into the unit's queue, modeling
// the static initial assignment done at data-loading time (no communication
// charge).
func (u *Unit) SeedTask(t task.Task) {
	u.env.TaskSpawned(t.TS)
	u.st.Spawned++
	if t.ID == 0 {
		t.ID = u.env.NextTaskID()
	}
	t.SpawnedAt = u.eng.Now()
	if _, local := u.localOffset(t.Addr); !local {
		// The block was lent out in an earlier epoch: forward the
		// seed to its current holder through the fabric.
		u.emit(u.taskMessage(t, u.env.Map().Home(t.Addr) == u.id))
		u.flushStaged()
		return
	}
	u.acceptTask(t)
}

// acceptTask routes a locally-available task into the reserved queue (when
// hot tracking covers its block) or the main task queue.
func (u *Unit) acceptTask(t task.Task) {
	if u.sk != nil && t.TS == u.env.CurrentEpoch() {
		blk := u.block(t.Addr)
		u.sk.Observe(blk, t.EffectiveWorkload())
		u.hits64++
		if _, tracked := u.sk.Lookup(blk); tracked && u.rq.Add(blk, t) {
			u.rqWorkload += t.EffectiveWorkload()
			return
		}
	}
	u.queue.Push(t)
}

// Kick prompts the core to start executing if it is idle. The system calls
// it at start-of-run and after deliveries and epoch advances.
func (u *Unit) Kick() { u.tryStart() }

// nextTask obtains the next runnable task of the current epoch, pulling
// reserved tasks back into the main queue when it runs dry.
func (u *Unit) nextTask(ts uint32) (task.Task, bool) {
	for {
		if t, ok := u.queue.Pop(ts); ok {
			return t, true
		}
		if u.rq == nil || u.rq.Total() == 0 {
			return task.Task{}, false
		}
		// Refill from the hottest reserved block; those tasks were
		// candidates to give away, but nobody asked — run them.
		e, ok := u.sk.Hottest()
		tasks := u.taskBuf[:0]
		if ok {
			tasks = u.rq.TakeAppend(tasks, e.Addr)
			u.sk.Remove(e.Addr)
		}
		if len(tasks) == 0 {
			tasks = u.rq.DrainAppend(tasks)
		}
		u.taskBuf = tasks[:0]
		if len(tasks) == 0 {
			return task.Task{}, false
		}
		for _, t := range tasks {
			u.rqWorkload -= t.EffectiveWorkload()
			u.queue.Push(t)
		}
	}
}

func (u *Unit) tryStart() {
	if u.running {
		return
	}
	if u.ft != nil {
		if u.ft.dead {
			return
		}
		if now := u.eng.Now(); now < u.ft.stalledUntil {
			// Transient stall: defer the start to the wake cycle.
			// One armed wake-up per stall window is enough — every
			// path back to readiness funnels through tryStart.
			if !u.ft.wakeArmed {
				u.ft.wakeArmed = true
				u.eng.At(u.ft.stalledUntil, func() {
					u.ft.wakeArmed = false
					u.tryStart()
				})
			}
			return
		}
	}
	if len(u.staged) > 0 && !u.flushStaged() {
		return // stalled: mailbox full, resume on next drain
	}
	eng := u.eng
	ts := u.env.CurrentEpoch()
	epj := u.cfg.Energy.DRAMAccessPJPer64b

	for {
		t, ok := u.nextTask(ts)
		if !ok {
			return
		}
		if _, local := u.localOffset(t.Addr); !local {
			// The block was lent away after this task was queued:
			// bounce the task back into the fabric (Section VI-B).
			u.st.Bounces++
			u.lastBounce = t.Addr
			u.emit(u.taskMessage(t, true))
			if len(u.staged) > 0 && !u.flushStaged() {
				return
			}
			continue
		}
		u.runTask(t, eng, epj)
		return
	}
}

func (u *Unit) runTask(t task.Task, eng *sim.Engine, epj float64) {
	u.running = true
	now := eng.Now()
	rec := u.env.Trace()
	execSpan := rec.TaskStart(t.Span, t.ID, t.SpawnedAt, u.id, now)
	// Task queue pop: one DRAM record read. The execution context is reused
	// across tasks — handlers run synchronously and never retain it.
	cursor := u.bank.Access(now, u.queueOff, taskRecordBytes, false, dram.AccessLocal, epj)
	u.ctx = execCtx{u: u, start: now, cursor: cursor, span: execSpan}
	u.env.Registry().Handler(t.Func)(&u.ctx, t)
	end := u.ctx.cursor
	if end <= now {
		end = now + 1
	}
	u.st.Busy += end - now
	u.st.Tasks++
	u.finishedWorkload += t.EffectiveWorkload()
	if u.ft != nil {
		// Shadow the running task so a kill mid-execution can force its
		// completion (the side effects above already happened).
		tc := t
		u.ft.cur = &tc
		u.ft.curBusy = end - now
	}
	rec.TaskEnd(execSpan, u.id, now, end, u.env.Registry().Name(t.Func))
	// One task is in flight at a time (u.running), so the completion event
	// is the pre-bound taskDone reading the epoch shadowed in curTS.
	u.curTS = t.TS
	eng.At(end, u.taskDoneFn)
}

// taskDone is the task-completion event body.
//
//ndplint:hotpath
func (u *Unit) taskDone() {
	if u.ft != nil {
		if u.ft.dead {
			// Killed mid-task: Extinguish already force-completed
			// the task (TaskDone fired there), so this pending
			// completion must not double-report it.
			return
		}
		u.ft.cur = nil
	}
	u.running = false
	u.env.TaskDone(u.curTS)
	u.tryStart()
}

// taskMessage builds an outgoing task message addressed to the home unit.
// escalate marks the cross-rank chase described in Section VI-B.
//
//ndplint:hotpath
func (u *Unit) taskMessage(t task.Task, escalate bool) *msg.Message {
	m := u.pool.NewTaskIn(u.id, u.env.Map().Home(t.Addr), t)
	m.Escalate = escalate
	return m
}

// emit stages an outgoing message. Staged messages move to the mailbox as
// space allows; the caller decides when a failed flush should stall the core.
func (u *Unit) emit(m *msg.Message) {
	u.env.MsgStaged()
	m.StagedAt = u.eng.Now()
	u.staged = append(u.staged, m)
}

// fabricCat is the category a message leg at this unit bills unless it is
// load-balancing traffic (msg.(*Message).Hop applies that rule): bridge
// designs bill gather/scatter batching delay; designs whose fabric is the
// host (C, R's cross-chip path) bill the host round-trip.
func (u *Unit) fabricCat() trace.Category {
	if u.cfg.Design.UsesBridges() {
		return trace.CatGatherBatch
	}
	return trace.CatHostRT
}

// flushStaged moves staged messages into the mailbox (or the chip mailbox
// for same-chip destinations in design R), charging a DRAM write per
// message. It returns false while messages remain (mailbox full).
func (u *Unit) flushStaged() bool {
	epj := u.cfg.Energy.DRAMAccessPJPer64b
	now := u.eng.Now()
	for len(u.staged) > 0 {
		m := u.staged[0]
		mb := u.mb
		if u.chipMail != nil && m.Dst >= 0 && !m.Sched && u.env.Map().SameChip(u.id, m.Dst) {
			mb = u.chipMail
		}
		if !mb.Enqueue(m) {
			u.st.Stalls++
			return false
		}
		u.st.MsgsOut++
		u.bank.Access(now, u.mailboxOff, m.Size(), true, dram.AccessComm, epj)
		u.staged = u.staged[1:]
	}
	u.staged = nil
	return true
}

// ChipMailUsed returns the bytes waiting for intra-chip RowClone transfer
// (design R only).
func (u *Unit) ChipMailUsed() uint64 {
	if u.chipMail == nil {
		return 0
	}
	return u.chipMail.Used()
}

// DrainChipMail removes up to budget bytes of same-chip messages; the
// RowClone engine transfers them within the chip.
func (u *Unit) DrainChipMail(budget uint64) []*msg.Message {
	if u.chipMail == nil {
		return nil
	}
	ms := u.chipMail.DrainUpTo(budget)
	if len(ms) > 0 {
		rec, now := u.env.Trace(), u.eng.Now()
		for _, m := range ms {
			// Intra-chip RowClone pickup: batching delay, like a bridge
			// gather.
			m.Hop(rec, trace.SpanMailbox, trace.CatGatherBatch, u.id, now)
		}
		epj := u.cfg.Energy.DRAMAccessPJPer64b
		u.bank.Access(now, u.mailboxOff, msg.TotalSize(ms), false, dram.AccessComm, epj)
		if len(u.staged) > 0 && u.flushStaged() {
			u.tryStart()
		}
	}
	return ms
}

// --- Fabric-facing entry points (GATHER / SCATTER / STATE-GATHER / SCHEDULE) ---

// MailboxUsed returns the bytes waiting in the mailbox (L_mailbox).
func (u *Unit) MailboxUsed() uint64 { return u.mb.Used() }

// DrainMailbox serves a GATHER command: it removes up to budget bytes of
// messages from the mailbox head, charging the bank read, and returns the
// messages with the bank-side completion time. After a drain, staged
// messages get another chance to enter the mailbox and the core resumes if
// it was stalled.
func (u *Unit) DrainMailbox(budget uint64) ([]*msg.Message, sim.Cycles) {
	now := u.eng.Now()
	if u.ft != nil {
		if u.ft.dead {
			return nil, now
		}
		if u.ft.gatherRet != nil && u.ft.gatherRet.Full() {
			// Retransmit-buffer watermark: refuse the drain so the
			// bridge's backpressure reaches the mailbox.
			u.env.Trace().Span(0, 0, trace.SpanBlocked, trace.CatRetry, u.id, now, now)
			return nil, now
		}
	}
	ms := u.mb.DrainUpTo(budget)
	if len(ms) == 0 {
		return nil, now
	}
	// One mailbox-wait span per message: staged → picked up by this gather.
	rec, fabric := u.env.Trace(), u.fabricCat()
	for _, m := range ms {
		m.Hop(rec, trace.SpanMailbox, fabric, u.id, now)
	}
	if u.ft != nil && u.ft.gatherRet != nil {
		// Stamp each message with a gather-hop sequence number and
		// checksum, and hold a copy for retransmission until acked.
		for _, m := range ms {
			if m.Seq == 0 {
				u.ft.gatherSeq++
				m.Seq = u.ft.gatherSeq
				m.Sum = msg.Checksum(m)
			}
			u.ft.gatherRet.Track(m)
		}
	}
	epj := u.cfg.Energy.DRAMAccessPJPer64b
	done := u.bank.Access(now, u.mailboxOff, msg.TotalSize(ms), false, dram.AccessComm, epj)
	if len(u.staged) > 0 {
		if u.flushStaged() {
			u.tryStart()
		}
	}
	return ms, done
}

// LastBounce returns the most recently bounced task address and the total
// bounce count, for livelock diagnostics.
func (u *Unit) LastBounce() (addr uint64, n uint64) { return u.lastBounce, u.st.Bounces }

// LentAt reports whether the home-owned block containing addr is marked
// lent (diagnostic/invariant-test hook).
func (u *Unit) LentAt(addr uint64) bool {
	if u.env.Map().Home(addr) != u.id {
		return false
	}
	return u.isLent.Lent(u.env.Map().Offset(addr))
}

// BorrowedBlocks returns the original addresses of all blocks this unit
// currently borrows (diagnostic/invariant-test hook).
func (u *Unit) BorrowedBlocks() []uint64 {
	var out []uint64
	u.borrowed.ForEach(func(k, _ uint64) { out = append(out, k) })
	return out
}

// WastedGather charges the bank cost of a GATHER that found no messages —
// fixed-interval triggering reads the transfer granularity from the mailbox
// region regardless of content (Section V-C).
func (u *Unit) WastedGather() {
	epj := u.cfg.Energy.DRAMAccessPJPer64b
	u.bank.Access(u.eng.Now(), u.mailboxOff, u.gxfer(), false, dram.AccessComm, epj)
}

// Deliver serves a SCATTER of one message to this unit. It charges the bank
// write and schedules the message's effect at the completion time. The
// returned cycle is when the bank transaction finishes.
//
//ndplint:hotpath
func (u *Unit) Deliver(m *msg.Message) sim.Cycles {
	eng := u.eng
	epj := u.cfg.Energy.DRAMAccessPJPer64b
	var off uint64
	switch m.Type {
	case msg.TypeTask:
		off = u.queueOff
	case msg.TypeData:
		off = u.borrowedOff
	default:
		off = u.queueOff
	}
	done := u.bank.Access(eng.Now(), off, m.Size(), true, dram.AccessComm, epj)
	if u.legacyDeliver {
		eng.At(done, func() { u.receive(m) }) //ndplint:alloc legacy compat path, off by default
		return done
	}
	// Batched delivery: reserve the sequence number now (so global event
	// order is identical to scheduling immediately) but park the message in
	// the inbox. One dispatch event is in flight whenever the inbox is
	// non-empty, keyed to the head entry's (cycle, seq).
	seq := eng.ReserveSeq()
	u.inbox = append(u.inbox, inboxEntry{at: done, seq: seq, m: m})
	if len(u.inbox)-u.inboxHead == 1 {
		eng.AtSeq(done, seq, u.inboxFn)
	}
	return done
}

// inboxFire dispatches the inbox head and coalesces directly-following
// entries: a successor at the same cycle with the very next sequence number
// would be the engine's next event anyway — nothing can order between two
// consecutive sequence numbers at one cycle — so it is processed in the same
// event and credited to the engine's processed count. Otherwise the successor
// gets its own event under its reserved (cycle, seq).
//
//ndplint:hotpath
func (u *Unit) inboxFire() {
	e := u.inbox[u.inboxHead]
	u.inbox[u.inboxHead] = inboxEntry{}
	u.inboxHead++
	u.receive(e.m)
	eng := u.eng
	for u.inboxHead < len(u.inbox) {
		n := u.inbox[u.inboxHead]
		if n.at == e.at && n.seq == e.seq+1 {
			u.inbox[u.inboxHead] = inboxEntry{}
			u.inboxHead++
			eng.CreditEvent()
			u.receive(n.m)
			e = n
			continue
		}
		eng.AtSeq(n.at, n.seq, u.inboxFn)
		if u.inboxHead > 64 && u.inboxHead*2 >= len(u.inbox) {
			k := copy(u.inbox, u.inbox[u.inboxHead:])
			for i := k; i < len(u.inbox); i++ {
				u.inbox[i] = inboxEntry{}
			}
			u.inbox = u.inbox[:k]
			u.inboxHead = 0
		}
		return
	}
	u.inbox = u.inbox[:0]
	u.inboxHead = 0
}

// freeMsg recycles a terminally-consumed message. Freeing is suppressed on
// fault-injection runs (retry layers hold message pointers in retransmit
// buffers past delivery), where the pool degrades to a plain arena.
//
//ndplint:hotpath
func (u *Unit) freeMsg(m *msg.Message) {
	if u.ft == nil && m.Seq == 0 {
		u.pool.Put(m)
	}
}

// receive applies a delivered message at bank-commit time.
func (u *Unit) receive(m *msg.Message) {
	if u.ft != nil {
		if m.Seq != 0 && u.ft.parent != nil {
			// Scatter-hop retry protocol: verify, ack, dedup.
			if !m.Verify() {
				u.ft.parent.ScatterNack(u.id, m.Seq)
				return
			}
			u.ft.parent.ScatterAck(u.id, m.Seq)
			if !u.ft.scatterDedup.Accept(m.Seq) {
				return // duplicate of an already-processed copy
			}
			m.Seq, m.Sum = 0, 0
		}
		if u.ft.dead {
			// Delivery committed at a dead bank: the recovery runtime
			// resolves the message terminally.
			if u.ft.lost != nil {
				u.ft.lost(m)
			}
			return
		}
	}
	u.st.MsgsIn++
	u.env.MsgDelivered()
	now := u.eng.Now()
	rec := u.env.Trace()
	rec.Delivered(u.id, m.StagedAt, now)
	// Final in-flight leg: last hop handoff → bank commit here.
	m.Hop(rec, trace.SpanDeliver, u.fabricCat(), u.id, now)
	switch m.Type {
	case msg.TypeTask:
		t := m.Task
		// The task resumes its flow at this unit: its queue wait chains off
		// the delivery span (whose End is the delivery commit).
		t.Span = m.Span
		if _, local := u.localOffset(t.Addr); !local {
			// Chasing a moving block: re-emit toward its home;
			// escalate if we are the home (it lives in another
			// rank).
			u.st.Bounces++
			u.lastBounce = t.Addr
			u.env.MsgStaged() // re-enters flight
			home := u.env.Map().Home(t.Addr) == u.id
			u.freeMsg(m)
			u.staged = append(u.staged, u.taskMessage(t, home))
			u.flushStaged()
			return
		}
		u.freeMsg(m)
		u.acceptTask(t)
		u.tryStart()
	case msg.TypeData:
		u.receiveData(m)
		u.freeMsg(m)
	default:
		panic(fmt.Sprintf("ndpunit: unit %d received %v message", u.id, m.Type))
	}
}

// receiveData handles an incoming data block chunk: either a block being
// lent to us (store in the borrowed region, update dataBorrowed) or one of
// our own blocks returning home (clear isLent).
func (u *Unit) receiveData(m *msg.Message) {
	home := u.env.Map().Home(m.BlockAddr)
	if home == u.id {
		// Returning home.
		off := u.env.Map().Offset(m.BlockAddr)
		if int(m.Index) == int(m.Total)-1 {
			// A block returning to an adopted (re-homed) range lands
			// at the buddy: the isLent bit at that offset belongs to
			// the buddy's own block, so only the raw home clears it.
			if u.ft == nil || u.env.Map().HomeRaw(m.BlockAddr) == u.id {
				if u.isLent.SetLent(off, false) {
					u.st.Returns++
				}
			}
			u.tryStart() // queued tasks for this block may now run
		}
		return
	}
	// Borrowed block chunk: allocate a region slot on the first chunk.
	blk := u.block(m.BlockAddr)
	if _, ok := u.borrowed.Lookup(blk); !ok {
		slot, ok := u.allocSlot()
		if !ok {
			// Region exhausted: evict the LRU borrowed block to
			// make room (return it home first).
			if !u.evictOneBorrowed() {
				return // nothing to evict; drop tracking (block bounces will heal)
			}
			slot, _ = u.allocSlot()
		}
		ev, evicted := u.borrowed.Insert(blk, slot)
		u.hits64++
		if evicted {
			u.returnBlock(ev.Key, ev.Value)
		}
		u.st.Borrowed++
	}
	if int(m.Index) == int(m.Total)-1 {
		u.tryStart()
	}
}

func (u *Unit) allocSlot() (uint64, bool) {
	if n := len(u.slots); n > 0 {
		s := u.slots[n-1]
		u.slots = u.slots[:n-1]
		return s, true
	}
	if u.slotNext < u.slotTotal {
		s := u.borrowedOff + u.slotNext*u.gxfer()
		u.slotNext++
		return s, true
	}
	return 0, false
}

// evictOneBorrowed returns an arbitrary borrowed block home to free a slot.
func (u *Unit) evictOneBorrowed() bool {
	var key, val uint64
	found := false
	u.borrowed.ForEach(func(k, v uint64) {
		if !found {
			key, val = k, v
			found = true
		}
	})
	if !found {
		return false
	}
	u.borrowed.Remove(key)
	u.returnBlock(key, val)
	return true
}

// returnBlock sends a borrowed block home and frees its slot.
func (u *Unit) returnBlock(blk, slot uint64) {

	u.slots = append(u.slots, slot)
	u.cache.Invalidate(blk)
	home := u.env.Map().Home(blk)
	u.splitBuf = u.pool.SplitDataInto(u.splitBuf[:0], u.id, home, blk, uint32(u.gxfer()))
	// A returning block is its own causal root (the LB round that lent it
	// out is long resolved): one fresh flow shared by its sub-messages.
	flow := u.env.Trace().NewFlow()
	for _, dm := range u.splitBuf {
		dm.Flow = flow
		u.emit(dm)
	}
	u.flushStaged()
	u.st.Returns++
}

// ForceReturn is the back-invalidation used when a bridge-level dataBorrowed
// entry is evicted: the receiver must return the block to keep the tables
// inclusive.
func (u *Unit) ForceReturn(blk uint64) {
	if slot, ok := u.borrowed.Lookup(blk); ok {
		u.borrowed.Remove(blk)
		u.returnBlock(blk, slot)
	}
}

// StateSnapshot serves STATE-GATHER: it returns the unit's state message
// payload and transfers ownership of the pending scheduled-out list.
func (u *Unit) StateSnapshot() msg.State {
	ts := u.env.CurrentEpoch()
	s := msg.State{
		LMailbox:  u.mb.Used(),
		WQueue:    u.queue.Workload(ts) + u.rqWorkload,
		WFinished: u.finishedWorkload,
		SchedList: u.schedOut,
	}
	u.schedOut = nil
	return s
}

// QueueWorkload exposes the current-epoch queue workload (for tests and the
// host executor).
func (u *Unit) QueueWorkload() uint64 {
	return u.queue.Workload(u.env.CurrentEpoch()) + u.rqWorkload
}

// Idle reports whether the core is idle with nothing runnable.
func (u *Unit) Idle() bool {
	return !u.running && u.queue.LenEpoch(u.env.CurrentEpoch()) == 0 && (u.rq == nil || u.rq.Total() == 0)
}

// HasBacklog reports whether the unit holds any queued work or undelivered
// outgoing messages (used for termination debugging).
func (u *Unit) HasBacklog() bool {
	return u.running || u.queue.Len() > 0 || (u.rq != nil && u.rq.Total() > 0) ||
		!u.mb.Empty() || len(u.staged) > 0 || (u.chipMail != nil && !u.chipMail.Empty())
}

// CommandSchedule serves the SCHEDULE command (Section VI-A step 2): the
// giver selects tasks worth at least budget workload, together with their
// data blocks, marks the blocks lent, and stages the messages tagged with
// the commanding round. The selected list is reported back through the next
// state message.
func (u *Unit) CommandSchedule(budget uint64, round uint32) {
	ts := u.env.CurrentEpoch()
	cfg := u.cfg
	// selected reuses the per-unit scratch buffer (and, within capacity,
	// each recycled entry's tasks backing array) across rounds.
	selected := u.selBuf[:0]
	var acc uint64
	appendSel := func(blk uint64, w uint64) *schedSel {
		if n := len(selected); n < cap(selected) {
			selected = selected[:n+1]
			s := &selected[n]
			s.blk, s.w = blk, w
			s.tasks = s.tasks[:0]
			return s
		}
		selected = append(selected, schedSel{blk: blk, w: w})
		return &selected[len(selected)-1]
	}

	useHot := u.sk != nil && cfg.LoadBalance.Hot
	if useHot {
		for acc < budget {
			e, ok := u.sk.Hottest()
			if !ok {
				break
			}
			tasks := u.rq.TakeAppend(u.taskBuf[:0], e.Addr)
			u.taskBuf = tasks[:0]
			u.sk.Remove(e.Addr)
			if len(tasks) == 0 {
				continue
			}
			var w uint64
			for _, t := range tasks {
				w += t.EffectiveWorkload()
				u.rqWorkload -= t.EffectiveWorkload()
			}
			// Only blocks currently resident at home can be lent:
			// borrowed blocks and blocks already lent out are
			// requeued (their tasks will bounce to the holder). An
			// adopted (re-homed) block is not lendable either: the
			// isLent bit at its offset is this unit's own block's, and
			// the return path clears it only at the raw home.
			if u.env.Map().HomeRaw(e.Addr) != u.id || u.isLent.Lent(u.env.Map().Offset(e.Addr)) {
				for _, t := range tasks {
					u.queue.Push(t)
				}
				continue
			}
			s := appendSel(e.Addr, w)
			s.tasks = append(s.tasks, tasks...)
			acc += w
		}
	}
	// Fallback (and the whole path for work stealing): pop from the queue
	// tail, grouping tasks by block.
	if acc < budget {
		if u.byBlock == nil {
			u.byBlock = make(map[uint64]int, 16)
		} else {
			clear(u.byBlock)
		}
		skipped := u.skipBuf[:0]
		for acc < budget {
			t, ok := u.queue.PopTail(ts)
			if !ok {
				break
			}
			blk := u.block(t.Addr)
			if u.env.Map().HomeRaw(blk) != u.id || u.isLent.Lent(u.env.Map().Offset(blk)) {
				skipped = append(skipped, t)
				continue
			}
			if i, ok := u.byBlock[blk]; ok {
				selected[i].tasks = append(selected[i].tasks, t)
				selected[i].w += t.EffectiveWorkload()
			} else {
				u.byBlock[blk] = len(selected)
				s := appendSel(blk, t.EffectiveWorkload())
				s.tasks = append(s.tasks, t)
			}
			acc += t.EffectiveWorkload()
		}
		for _, t := range skipped {
			u.queue.Push(t)
		}
		u.skipBuf = skipped[:0]
	}

	for i := range selected {
		s := &selected[i]
		off := u.env.Map().Offset(s.blk)
		u.isLent.SetLent(off, true)
		u.cache.Invalidate(s.blk)
		u.st.Lent++
		u.splitBuf = u.pool.SplitDataInto(u.splitBuf[:0], u.id, -1, s.blk, uint32(u.gxfer()))
		// Each migrated block starts a fresh flow; its scheduled-out tasks
		// keep their own task flows (the spans bill CatLBMigration either
		// way via the Sched/Round marks).
		flow := u.env.Trace().NewFlow()
		for _, dm := range u.splitBuf {
			dm.Sched = true
			dm.Round = round
			dm.Flow = flow
			u.emit(dm)
		}
		for _, t := range s.tasks {
			tm := u.pool.NewTaskIn(u.id, -1, t)
			tm.Sched = true
			tm.Round = round
			u.emit(tm)
		}
		u.schedOut = append(u.schedOut, msg.SchedOut{BlockAddr: s.blk, Workload: s.w})
	}
	u.selBuf = selected
	u.flushStaged()
}
