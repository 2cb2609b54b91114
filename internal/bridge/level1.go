// Package bridge implements the NDPBridge hardware bridges (Section V): the
// level-1 rank bridge living in the DIMM buffer chip, and the level-2 bridge
// realized as a host software runtime. Bridges actively gather messages from
// their passive children's mailboxes, route them by data location, and
// scatter them to destinations — using forged DDR commands whose costs are
// modeled as bank accesses plus bus occupancy. Bridges also drive the
// hierarchical load balancing of Section VI.
package bridge

import (
	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/mailbox"
	"ndpbridge/internal/metadata"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/ndpunit"
	"ndpbridge/internal/sched"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/trace"
)

// Env provides global simulator services to bridges.
type Env interface {
	Engine() *sim.Engine
	Cfg() *config.Config
	Map() *dram.AddrMap
	// Trace returns the activity recorder, or nil when tracing is off.
	Trace() *trace.Recorder
}

// Stats holds per-bridge counters.
type Stats struct {
	GatherRounds   uint64
	ScatterRounds  uint64
	WastedGathers  uint64 // fixed-interval gathers that found nothing
	BusBytes       uint64 // bytes moved on the rank-internal bus
	LBRounds       uint64
	BlocksAssigned uint64
	StateSweeps    uint64
}

// stateMsgBytes is the wire size of one state message (without sched list).
const stateMsgBytes = 36

// Level1 is a rank-level bridge (Figure 4(a)).
type Level1 struct {
	rank int
	env  Env //ndplint:nosnap simulation wiring, rebound at construction
	// eng/cfg cache env.Engine()/env.Cfg() — both stable for the system's
	// lifetime — so hot paths skip the interface dispatch.
	eng      *sim.Engine     //ndplint:nosnap cached wiring, set at construction
	cfg      *config.Config  //ndplint:nosnap cached wiring, set at construction
	children []*ndpunit.Unit //ndplint:nosnap topology from config; units snapshot themselves
	//ndplint:nosnap topology wiring from config (the level-2 bridge, nil in single-rank tests)
	up upLevel

	chips        int //ndplint:nosnap geometry constant from config
	banksPerChip int //ndplint:nosnap geometry constant from config

	// Scatter buffers, one per child, byte-capped.
	scatter      [][]*msg.Message
	scatterBytes []uint64

	// Backup buffer (FIFO) absorbing overflow; gathering pauses while it
	// exceeds its capacity.
	backup      []*msg.Message
	backupBytes uint64

	// upMail holds messages bound for other ranks until level-2 gathers.
	upMail *mailbox.Mailbox

	borrowed *metadata.Borrowed
	toArrive map[int]uint64

	// assign tracks load-balancing rounds by (giver unit, round tag).
	// An entry with up set means the round's scheduled-out messages
	// route to the level-2 bridge (cross-rank round).
	assign    map[schedKey]*assignState
	nextRound uint32

	rng *sim.RNG

	lastStates   []msg.State
	prevFinished uint64
	wth          uint64
	csBuf        []sched.ChildState //ndplint:nosnap scratch, consumed within loadBalance

	running    bool
	roundIdx   int
	lastGather sim.Cycles

	// Pre-bound periodic callbacks (the bus loop and the state sweep):
	// method-value expressions allocate per use, these are created once.
	stepFn  func() //ndplint:nosnap wiring, rebound at construction
	sweepFn func() //ndplint:nosnap wiring, rebound at construction

	st Stats

	// Fault-injection state; nil (one branch on hot paths) when no fault
	// plan is attached.
	fi *faultL1

	// Instruments, bound by BindMetrics; nil no-ops when metrics are off.
	mGather   *metrics.Histogram // bytes moved per non-empty gather round
	mScatter  *metrics.Histogram // bytes moved per non-empty scatter round
	mLBBudget *metrics.Histogram // workload budget per SCHEDULE command
	mWQueue   *metrics.Histogram // per-child W_queue at each LB round
	cLB       *metrics.Counter
	cWasted   *metrics.Counter
}

// BindMetrics attaches the bridge's instruments to reg. All level-1 bridges
// of one run bind the same named instruments (system-wide distributions).
func (b *Level1) BindMetrics(reg *metrics.Registry) {
	b.mGather = reg.Histogram("gather_batch_bytes")
	b.mScatter = reg.Histogram("scatter_batch_bytes")
	b.mLBBudget = reg.Histogram("lb_budget_workload")
	b.mWQueue = reg.Histogram("lb_child_wqueue")
	b.cLB = reg.Counter("lb_rounds")
	b.cWasted = reg.Counter("wasted_gathers")
}

// BackupBytes returns the bytes held in the overflow backup buffer, for the
// bridge-buffer-occupancy gauge.
func (b *Level1) BackupBytes() uint64 { return b.backupBytes }

// ScatterBacklog returns the bytes waiting in all per-child scatter buffers.
func (b *Level1) ScatterBacklog() uint64 {
	var n uint64
	for _, s := range b.scatterBytes {
		n += s
	}
	return n
}

type assignState struct {
	receivers []int
	next      int
	blockTo   map[uint64]int
	up        bool
}

// schedKey identifies one load-balancing round at one giver.
type schedKey struct {
	giver int
	round uint32
}

// upLevel is what a level-1 bridge needs from its parent.
type upLevel interface {
	// RankAllIdle tells the parent this rank has no runnable work.
	RankAllIdle(rank int)
	// KickChannel pokes the parent's loop for this rank's channel.
	KickChannel(rank int)
	// AckDown / NackDown acknowledge one down-hop delivery (retry
	// protocol sideband; no-ops when faults are off).
	AckDown(rank int, seq uint32)
	NackDown(rank int, seq uint32)
}

// NewLevel1 builds the bridge for one rank. children must be the rank's
// units in local order.
func NewLevel1(rank int, env Env, children []*ndpunit.Unit, rng *sim.RNG) *Level1 {
	cfg := env.Cfg()
	b := &Level1{
		rank:         rank,
		env:          env,
		eng:          env.Engine(),
		cfg:          cfg,
		children:     children,
		chips:        cfg.Geometry.ChipsPerRank,
		banksPerChip: cfg.Geometry.BanksPerChip,
		scatter:      make([][]*msg.Message, len(children)),
		scatterBytes: make([]uint64, len(children)),
		upMail:       mailbox.New(cfg.Buffers.BridgeMailboxBytes),
		borrowed:     metadata.NewBorrowed(cfg.Metadata.BridgeBorrowedEntries, cfg.Metadata.BridgeBorrowedWays),
		toArrive:     make(map[int]uint64),
		assign:       make(map[schedKey]*assignState),
		rng:          rng,
		wth:          sched.Wth(cfg.GXfer, 1, float64(cfg.EffectiveChipDQ())),
	}
	// Bind the periodic callbacks once; method-value expressions allocate
	// a closure at every use, and these reschedule every bus round.
	b.stepFn = b.step
	b.sweepFn = b.stateSweep
	return b
}

// SetUp connects the level-2 bridge.
func (b *Level1) SetUp(up upLevel) { b.up = up }

// Rank returns the bridge's global rank index.
func (b *Level1) Rank() int { return b.rank }

// Stats returns the bridge's counters.
func (b *Level1) Stats() Stats { return b.st }

// Start begins the periodic state sweeps. Call once at simulation start.
func (b *Level1) Start() {
	b.eng.After(b.cfg.IState, b.sweepFn)
	if b.cfg.Trigger != config.TriggerDynamic {
		b.ensureLoop()
	}
}

func (b *Level1) localIndex(unit int) int {
	per := b.cfg.Geometry.UnitsPerRank()
	return unit - b.rank*per
}

func (b *Level1) isLocalUnit(unit int) bool {
	per := b.cfg.Geometry.UnitsPerRank()
	return unit >= 0 && unit/per == b.rank
}

// --- State sweep and load balancing -------------------------------------

func (b *Level1) stateSweep() {
	cfg := b.cfg
	b.st.StateSweeps++
	// Overwrite lastStates in place: its backing array is reused every
	// sweep, and readers only ever want the latest sweep's values.
	states := b.lastStates[:0]
	var finished uint64
	for _, u := range b.children {
		s := u.StateSnapshot()
		states = append(states, s)
		finished += s.WFinished
		b.st.BusBytes += stateMsgBytes
	}
	b.lastStates = states

	// Refresh the in-advance threshold from measured progress.
	sexe := sched.EstimateSexe(finished-b.prevFinished, cfg.IState, len(b.children))
	b.prevFinished = finished
	b.wth = sched.Wth(cfg.GXfer, sexe, float64(cfg.EffectiveChipDQ()))

	if cfg.Design.LoadBalancing() {
		b.loadBalance(states)
	}
	b.maybeTrigger()
	b.eng.After(cfg.IState, b.sweepFn)
}

// childStates converts a sweep's states for the scheduler, reusing a scratch
// buffer; the result is consumed within the same loadBalance call.
func (b *Level1) childStates(states []msg.State) []sched.ChildState {
	out := b.csBuf[:0]
	for i, s := range states {
		if b.fi != nil && b.fi.dead[i] {
			continue
		}
		id := b.children[i].ID()
		out = append(out, sched.ChildState{ID: id, WQueue: s.WQueue, ToArrive: b.toArrive[id]})
	}
	b.csBuf = out[:0]
	return out
}

func (b *Level1) loadBalance(states []msg.State) {
	cfg := b.cfg
	cs := b.childStates(states)
	receivers := sched.Receivers(cs, cfg.LoadBalance, b.wth)
	givers := sched.Givers(cs, cfg.LoadBalance, b.wth)

	// Hierarchical escalation: if every child is starved and none can
	// give, report to the level-2 bridge for cross-rank balancing.
	if len(givers) == 0 {
		if b.up != nil && len(receivers) == len(cs) && b.allQuiet() {
			b.up.RankAllIdle(b.rank)
		}
		return
	}
	if len(receivers) == 0 {
		return
	}
	queueOf := func(g int) uint64 { return b.children[b.localIndex(g)].QueueWorkload() }
	cmds := sched.Match(b.rng, receivers, givers, cfg.LoadBalance, b.wth, queueOf)
	now := uint64(b.eng.Now())
	if len(cmds) > 0 {
		for _, c := range cs {
			b.mWQueue.Observe(c.WQueue)
		}
	}
	for _, c := range cmds {
		b.st.LBRounds++
		b.cLB.Inc()
		b.mLBBudget.Observe(c.Budget)
		round := b.newRound()
		b.assign[schedKey{c.Giver, round}] = &assignState{receivers: c.Receivers, blockTo: make(map[uint64]int)}
		b.env.Trace().Record(trace.KindLB, c.Giver, now, now, "schedule")
		b.children[b.localIndex(c.Giver)].CommandSchedule(c.Budget, round)
	}
	b.ensureLoop()
}

func (b *Level1) allQuiet() bool {
	for _, u := range b.children {
		if u.HasBacklog() {
			return false
		}
	}
	return b.upMail.Empty() && len(b.backup) == 0
}

// newRound allocates a level-1 round tag (even).
func (b *Level1) newRound() uint32 {
	b.nextRound += 2
	return b.nextRound
}

// CommandScheduleRank serves a level-2 SCHEDULE: lend budget workload out of
// this rank, tagged with the level-2 round. The bridge splits the budget
// across its busiest children; their scheduled-out messages route up instead
// of to local receivers.
func (b *Level1) CommandScheduleRank(budget uint64, round uint32) {
	type cand struct {
		idx int
		w   uint64
	}
	var cands []cand
	for i, u := range b.children {
		if w := u.QueueWorkload(); w > b.wth {
			cands = append(cands, cand{i, w})
		}
	}
	if len(cands) == 0 {
		return
	}
	share := budget / uint64(len(cands))
	if share == 0 {
		share = budget
	}
	var given uint64
	for _, c := range cands {
		if given >= budget {
			break
		}
		amt := share
		if c.w/2 < amt {
			amt = c.w / 2
		}
		if amt == 0 {
			continue
		}
		g := b.children[c.idx].ID()
		b.assign[schedKey{g, round}] = &assignState{up: true}
		b.children[c.idx].CommandSchedule(amt, round)
		given += amt
	}
	b.ensureLoop()
}

// --- Dynamic communication triggering (Section V-C) ----------------------

func (b *Level1) maybeTrigger() {
	if b.gatherEligible() || b.scatterPending() || !b.upMail.Empty() {
		b.ensureLoop()
	}
}

// gatherEligible applies the trigger policy of Section V-C.
func (b *Level1) gatherEligible() bool {
	cfg := b.cfg
	if b.paused() {
		return false
	}
	switch cfg.Trigger {
	case config.TriggerFixedIMin, config.TriggerFixed2IMin:
		return true // fixed policies always gather, wasting empty rounds
	}
	anyPending := false
	anyIdle := false
	for _, u := range b.children {
		used := u.MailboxUsed()
		if used > 0 {
			anyPending = true
			if used >= cfg.GXfer {
				return true // over-G_xfer pending always triggers
			}
		}
		if u.Idle() {
			anyIdle = true
		}
	}
	if !anyPending {
		return false
	}
	now := b.eng.Now()
	return anyIdle && now-b.lastGather >= cfg.IMin()
}

func (b *Level1) paused() bool {
	total := b.backupBytes
	if b.fi != nil {
		total += b.fi.extraBackup
	}
	return total > b.cfg.Buffers.BackupBufBytes
}

func (b *Level1) scatterPending() bool {
	for _, n := range b.scatterBytes {
		if n > 0 {
			return true
		}
	}
	return len(b.backup) > 0
}

// --- The bus loop ---------------------------------------------------------

func (b *Level1) ensureLoop() {
	if b.running {
		return
	}
	b.running = true
	b.eng.After(0, b.stepFn)
}

func (b *Level1) step() {
	b.reinjectBackup()
	// One scatter round and one gather round share each bus iteration, so
	// neither direction starves the other.
	var total sim.Cycles
	if dur, ok := b.scatterRound(); ok {
		total += dur
	}
	if dur, ok := b.gatherRound(); ok {
		total += dur
	}
	if total > 0 {
		if b.cfg.Trigger == config.TriggerFixed2IMin {
			// Half-rate gathering: idle for as long as the round
			// took (Section V-C's 2×I_min frequency).
			total *= 2
		}
		b.eng.After(total, b.stepFn)
		return
	}
	if b.cfg.Trigger != config.TriggerDynamic {
		// Fixed policies keep sweeping at their interval even when
		// idle, wasting gathers (Figure 14(b)).
		b.eng.After(b.fixedInterval(), b.stepFn)
		return
	}
	if !b.paused() && b.anyActivity() {
		// The rank still has running or queued work that will produce
		// messages: keep polling at the I_min pace (Section V-C)
		// rather than sleeping until the next state sweep.
		b.eng.After(b.cfg.IMin(), b.stepFn)
		return
	}
	b.running = false
}

// anyActivity reports whether any child is executing, holds queued work, or
// has pending outgoing messages.
func (b *Level1) anyActivity() bool {
	for _, u := range b.children {
		if u.HasBacklog() {
			return true
		}
	}
	return !b.upMail.Empty() || len(b.backup) > 0
}

func (b *Level1) fixedInterval() sim.Cycles {
	iv := b.cfg.IMin()
	if b.cfg.Trigger == config.TriggerFixed2IMin {
		iv *= 2
	}
	return iv
}

// roundDuration is the bus time of one gather/scatter round: G_xfer bytes
// per chip in parallel over the per-chip DQ.
func (b *Level1) roundDuration() sim.Cycles {
	cfg := b.cfg
	d := (cfg.GXfer + cfg.EffectiveChipDQ() - 1) / cfg.EffectiveChipDQ()
	if d == 0 {
		d = 1
	}
	return d + 2 // command latency
}

// gatherRound drains up to G_xfer bytes from one child per chip (the same
// bank index across chips, Section V-B) and routes the messages.
func (b *Level1) gatherRound() (sim.Cycles, bool) {
	cfg := b.cfg
	if !b.gatherEligible() {
		return 0, false
	}
	fixed := cfg.Trigger != config.TriggerDynamic
	var movedBytes uint64
	for chip := 0; chip < b.chips; chip++ {
		child := b.pickGatherChild(chip)
		if child < 0 {
			if fixed {
				// A wasted GATHER still reads G_xfer from the
				// mailbox region of the round-robin bank.
				idx := chip*b.banksPerChip + b.roundIdx%b.banksPerChip
				b.children[idx].WastedGather()
				b.st.WastedGathers++
				b.cWasted.Inc()
				b.st.BusBytes += cfg.GXfer
			}
			continue
		}
		u := b.children[child]
		ms, _ := u.DrainMailbox(cfg.GXfer)
		if len(ms) == 0 {
			if fixed {
				b.st.WastedGathers++
				b.cWasted.Inc()
				b.st.BusBytes += cfg.GXfer
			}
			continue
		}
		movedBytes += msg.TotalSize(ms)
		for _, m := range ms {
			b.gatherIn(child, m)
		}
	}
	b.roundIdx++
	b.lastGather = b.eng.Now()
	if movedBytes == 0 && !fixed {
		return 0, false
	}
	if movedBytes > 0 {
		b.st.BusBytes += movedBytes
		b.mGather.Observe(movedBytes)
	}
	b.st.GatherRounds++
	return b.roundDuration(), true
}

// pickGatherChild selects the child of one chip with the fullest mailbox.
func (b *Level1) pickGatherChild(chip int) int {
	best, bestUsed := -1, uint64(0)
	for i := 0; i < b.banksPerChip; i++ {
		idx := chip*b.banksPerChip + i
		if b.fi != nil && b.fi.dead[idx] {
			continue
		}
		if used := b.children[idx].MailboxUsed(); used > bestUsed {
			best, bestUsed = idx, used
		}
	}
	return best
}

// scatterRound writes up to G_xfer bytes to one child per chip from its
// scatter buffer.
func (b *Level1) scatterRound() (sim.Cycles, bool) {
	cfg := b.cfg
	var movedBytes uint64
	for chip := 0; chip < b.chips; chip++ {
		idx := b.pickScatterChild(chip)
		if idx < 0 {
			continue
		}
		var sent uint64
		for sent < cfg.GXfer && len(b.scatter[idx]) > 0 {
			m := b.scatter[idx][0]
			s := m.Size()
			if sent > 0 && sent+s > cfg.GXfer {
				break
			}
			b.scatter[idx] = b.scatter[idx][1:]
			b.scatterBytes[idx] -= s
			sent += s
			b.deliverToChild(idx, m)
		}
		if sent > 0 {
			movedBytes += sent
			b.st.BusBytes += sent
		}
	}
	if movedBytes == 0 {
		return 0, false
	}
	b.mScatter.Observe(movedBytes)
	b.st.ScatterRounds++
	return b.roundDuration(), true
}

func (b *Level1) pickScatterChild(chip int) int {
	best, bestUsed := -1, uint64(0)
	for i := 0; i < b.banksPerChip; i++ {
		idx := chip*b.banksPerChip + i
		if b.fi != nil {
			// Dead children take no deliveries; a full retransmit
			// buffer backpressures its child until acks free space.
			if b.fi.dead[idx] || (b.fi.scatterRet != nil && b.fi.scatterRet[idx].Full()) {
				continue
			}
		}
		if used := b.scatterBytes[idx]; used > bestUsed {
			best, bestUsed = idx, used
		}
	}
	return best
}

func (b *Level1) deliverToChild(idx int, m *msg.Message) {
	u := b.children[idx]
	if rec := b.env.Trace(); rec.FlowsEnabled() {
		// Scatter-buffer wait: from the hop that routed the message here
		// (gather pickup or down-channel commit) to this scatter slot.
		now := b.eng.Now()
		cat := trace.CatBridgeQueue
		if m.Sched || m.Round != 0 {
			cat = trace.CatLBMigration
		}
		m.Span = rec.Span(m.Flow, m.Span, trace.SpanBridgeQ, cat, u.ID(), m.HopStart(), now)
		m.HopAt = now
	}
	if m.Type == msg.TypeTask {
		// The scheduled task has arrived: correct the pending counter.
		// Accounted once at first send — retransmissions bypass this path.
		w := m.Task.EffectiveWorkload()
		id := u.ID()
		if b.toArrive[id] >= w {
			b.toArrive[id] -= w
		} else {
			delete(b.toArrive, id)
		}
	}
	if b.fi == nil {
		u.Deliver(m)
		return
	}
	if b.fi.dead[idx] {
		if b.fi.lost != nil {
			b.fi.lost(m)
		}
		return
	}
	if b.fi.scatterRet != nil && m.Seq == 0 {
		b.fi.scatterSeq[idx]++
		m.Seq = b.fi.scatterSeq[idx]
		m.Sum = msg.Checksum(m)
		b.fi.scatterRet[idx].Track(m)
	}
	b.wireScatter(idx, m)
}

// --- Routing (message router, Figure 4(a)) -------------------------------

// route places a gathered message into a scatter buffer, the up-mailbox, or
// the backup buffer.
func (b *Level1) route(m *msg.Message) {
	amap := b.env.Map()

	// Scheduled-out messages get their destination assigned here
	// (Section VI-A step 4).
	if m.Sched && m.Dst < 0 {
		blk, _ := m.RouteAddr()
		blk = dram.BlockAlign(blk, b.cfg.GXfer)
		// The table is the source of truth: a block whose messages
		// straddle scheduling rounds keeps its first assignment.
		if v, hit := b.borrowed.Lookup(blk); hit {
			b.assignTo(int(v), m)
			return
		}
		as := b.assign[schedKey{m.Src, m.Round}]
		if as == nil {
			// Unknown round (should not happen): send the block
			// home, which clears the giver's isLent bit and heals.
			m.Sched = false
			m.Dst = amap.Home(blk)
		} else if as.up {
			b.pushUp(m)
			return
		} else {
			r, ok := as.blockTo[blk]
			if !ok {
				r = as.receivers[as.next%len(as.receivers)]
				as.next++
				as.blockTo[blk] = r
				b.insertBorrowed(blk, r)
				b.st.BlocksAssigned++
			}
			b.assignTo(r, m)
			return
		}
	}

	blk, routable := m.RouteAddr()
	if routable {
		home := amap.Home(blk)
		// A data message heading home is a return: drop our
		// borrowed-table entry as it passes.
		if m.Type == msg.TypeData && m.Dst == home {
			b.borrowed.Remove(dram.BlockAlign(blk, b.cfg.GXfer))
		} else if r, ok := b.borrowed.Lookup(dram.BlockAlign(blk, b.cfg.GXfer)); ok {
			// Our own table beats escalation: intra-rank lends are
			// resolved here.
			m.Dst = int(r)
			m.Escalate = false
		} else if m.Escalate {
			// The home unit bounced it and this rank knows nothing:
			// the block lives in another rank; the level-2 table
			// knows where.
			b.pushUp(m)
			return
		} else {
			m.Dst = home
		}
	}
	if b.isLocalUnit(m.Dst) {
		b.enqueueScatter(b.localIndex(m.Dst), m)
		return
	}
	b.pushUp(m)
}

// assignTo finalizes a scheduled-out message's destination and queues it for
// scatter.
func (b *Level1) assignTo(r int, m *msg.Message) {
	m.Dst = r
	if m.Type == msg.TypeTask {
		b.toArrive[r] += m.Task.EffectiveWorkload()
	}
	b.enqueueScatter(b.localIndex(r), m)
}

// insertBorrowed records block→receiver, back-invalidating on eviction to
// keep the unit tables inclusive.
func (b *Level1) insertBorrowed(blk uint64, receiver int) {
	ev, evicted := b.borrowed.Insert(blk, uint64(receiver))
	if evicted && b.isLocalUnit(int(ev.Value)) {
		b.children[b.localIndex(int(ev.Value))].ForceReturn(ev.Key)
	}
}

// AcceptFromUp receives a message scattered down by the level-2 bridge. The
// message first crosses the (possibly faulty) down hop, then the bridge-side
// retry receiver verifies, acks, and dedups it before routing.
func (b *Level1) AcceptFromUp(m *msg.Message) {
	if b.fi != nil {
		if h := b.fi.downHop; h != nil {
			applyOutcome(b.eng, h.Decide(b.eng.Now()), m, b.acceptDown)
			return
		}
	}
	b.acceptDown(m)
}

func (b *Level1) acceptDown(m *msg.Message) {
	if b.fi != nil && m.Seq != 0 {
		if !m.Verify() {
			b.up.NackDown(b.rank, m.Seq)
			return
		}
		b.up.AckDown(b.rank, m.Seq)
		if !b.fi.downDedup.Accept(m.Seq) {
			return
		}
		m.Seq, m.Sum = 0, 0
	}
	if rec := b.env.Trace(); rec.FlowsEnabled() {
		// Down-channel leg: level-2 scatter queue + channel batch transit.
		now := b.eng.Now()
		cat := trace.CatHostRT
		if m.Sched || m.Round != 0 {
			cat = trace.CatLBMigration
		}
		m.Span = rec.Span(m.Flow, m.Span, trace.SpanBridgeQ, cat, -1, m.HopStart(), now)
		m.HopAt = now
	}
	if m.Sched && m.Dst < 0 {
		// Cross-rank lend arriving at the receiver rank: pick an idle
		// child for the block.
		blk, _ := m.RouteAddr()
		gx := b.cfg.GXfer
		blk = dram.BlockAlign(blk, gx)
		if r, ok := b.borrowed.Lookup(blk); ok {
			m.Dst = int(r)
		} else {
			m.Dst = b.pickIdleChild(blk)
			b.insertBorrowed(blk, m.Dst)
			b.st.BlocksAssigned++
		}
		m.Sched = false
		if m.Type == msg.TypeTask {
			b.toArrive[m.Dst] += m.Task.EffectiveWorkload()
		}
		b.enqueueScatter(b.localIndex(m.Dst), m)
		b.ensureLoop()
		return
	}
	m.Escalate = false
	b.route(m)
	b.ensureLoop()
}

// pickIdleChild selects a child for an incoming cross-rank block,
// hash-spread over the currently idle children.
func (b *Level1) pickIdleChild(blk uint64) int {
	var idle []int
	for i, u := range b.children {
		if b.fi != nil && b.fi.dead[i] {
			continue
		}
		if u.Idle() {
			idle = append(idle, u.ID())
		}
	}
	if len(idle) == 0 {
		if b.fi != nil {
			// Fall back to any surviving child; a dead pick would send
			// the block into a loss/respawn loop.
			var alive []int
			for i, u := range b.children {
				if !b.fi.dead[i] {
					alive = append(alive, u.ID())
				}
			}
			if len(alive) > 0 {
				return alive[int(blk>>8)%len(alive)]
			}
		}
		return b.children[int(blk>>8)%len(b.children)].ID()
	}
	return idle[int(blk>>8)%len(idle)]
}

func (b *Level1) enqueueScatter(idx int, m *msg.Message) {
	if b.fi != nil && b.fi.dead[idx] {
		if b.fi.lost != nil {
			b.fi.lost(m)
		}
		return
	}
	cfg := b.cfg
	s := m.Size()
	if b.scatterBytes[idx]+s <= cfg.Buffers.ScatterBufBytes && len(b.backup) == 0 {
		b.scatter[idx] = append(b.scatter[idx], m)
		b.scatterBytes[idx] += s
		return
	}
	// Overflow to the backup buffer (FIFO to preserve ordering).
	b.backup = append(b.backup, m)
	b.backupBytes += s
}

func (b *Level1) pushUp(m *msg.Message) {
	if b.upMail.Enqueue(m) {
		if b.up != nil {
			b.up.KickChannel(b.rank)
		}
		return
	}
	b.backup = append(b.backup, m)
	b.backupBytes += m.Size()
}

// reinjectBackup moves backed-up messages into their target buffers in FIFO
// order, stopping at the first that still does not fit.
func (b *Level1) reinjectBackup() {
	cfg := b.cfg
	for len(b.backup) > 0 {
		m := b.backup[0]
		s := m.Size()
		if b.isLocalUnit(m.Dst) && !(m.Sched && m.Dst < 0) {
			idx := b.localIndex(m.Dst)
			if b.fi != nil && b.fi.dead[idx] {
				b.backup = b.backup[1:]
				b.backupBytes -= s
				if b.fi.lost != nil {
					b.fi.lost(m)
				}
				continue
			}
			if b.scatterBytes[idx]+s > cfg.Buffers.ScatterBufBytes {
				return
			}
			b.scatter[idx] = append(b.scatter[idx], m)
			b.scatterBytes[idx] += s
		} else {
			if !b.upMail.Enqueue(m) {
				return
			}
			if b.up != nil {
				b.up.KickChannel(b.rank)
			}
		}
		b.backup = b.backup[1:]
		b.backupBytes -= s
	}
}

// --- Level-2 interface ----------------------------------------------------

// BorrowedEntry reports this bridge's dataBorrowed mapping for blk
// (diagnostic/invariant-test hook; does not touch LRU state).
func (b *Level1) BorrowedEntry(blk uint64) (int, bool) {
	if !b.borrowed.Contains(blk) {
		return 0, false
	}
	v, _ := b.borrowed.Lookup(blk)
	return int(v), true
}

// ForceReturnBlock back-invalidates a cross-rank lend: the level-2 bridge
// evicted its table entry, so the borrowing unit under this bridge must
// return the block to keep the hierarchy inclusive.
func (b *Level1) ForceReturnBlock(blk uint64) {
	if r, ok := b.borrowed.Lookup(blk); ok {
		b.borrowed.Remove(blk)
		if b.isLocalUnit(int(r)) {
			b.children[b.localIndex(int(r))].ForceReturn(blk)
			b.ensureLoop()
		}
	}
}

// UpPending returns the bytes waiting for the level-2 bridge.
func (b *Level1) UpPending() uint64 { return b.upMail.Used() }

// DrainUp removes up to budget bytes of up-bound messages. With retry armed,
// messages are stamped and tracked on their way out; a full retransmit
// buffer refuses the drain until acks free space.
func (b *Level1) DrainUp(budget uint64) []*msg.Message {
	if b.fi != nil && b.fi.upRet != nil && b.fi.upRet.Full() {
		b.env.Trace().Span(0, 0, trace.SpanBlocked, trace.CatRetry, -1, b.eng.Now(), b.eng.Now())
		return nil
	}
	ms := b.upMail.DrainUpTo(budget)
	if len(ms) > 0 {
		b.reinjectBackup()
	}
	if rec := b.env.Trace(); rec.FlowsEnabled() {
		// Up-mailbox wait: routed into upMail → picked up by a level-2
		// channel batch.
		now := b.eng.Now()
		for _, m := range ms {
			cat := trace.CatBridgeQueue
			if m.Sched || m.Round != 0 {
				cat = trace.CatLBMigration
			}
			m.Span = rec.Span(m.Flow, m.Span, trace.SpanBridgeQ, cat, -1, m.HopStart(), now)
			m.HopAt = now
		}
	}
	if b.fi != nil && b.fi.upRet != nil {
		for _, m := range ms {
			if m.Seq == 0 {
				b.fi.upSeq++
				m.Seq = b.fi.upSeq
				m.Sum = msg.Checksum(m)
			}
			b.fi.upRet.Track(m)
		}
	}
	return ms
}

// AggregateState sums child states for level-2 scheduling decisions.
func (b *Level1) AggregateState() sched.ChildState {
	var wq, ta uint64
	for _, u := range b.children {
		wq += u.QueueWorkload()
		ta += b.toArrive[u.ID()]
	}
	return sched.ChildState{ID: b.rank, WQueue: wq, ToArrive: ta}
}

// HasWork reports whether the rank holds any queued or in-transit work.
func (b *Level1) HasWork() bool {
	return !b.allQuiet()
}

// Wth exposes the current in-advance threshold (for the level-2 bridge and
// tests).
func (b *Level1) Wth() uint64 { return b.wth }
