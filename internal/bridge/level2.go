package bridge

import (
	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/metadata"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/sched"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/trace"
)

// Level2 is the level-2 bridge: a host software runtime connecting the
// level-1 bridges over the existing DDR channels (Section V-A). It gathers
// cross-rank messages from the level-1 mailboxes, routes them — including
// assigning receiver ranks during cross-rank load balancing — and scatters
// them down the destination rank's channel. Each transfer occupies the
// channel link and pays a fixed host software overhead per batch.
type Level2 struct {
	env Env //ndplint:nosnap simulation wiring, rebound at construction
	// eng/cfg cache env.Engine()/env.Cfg() — both stable for the system's
	// lifetime — so hot paths skip the interface dispatch.
	eng     *sim.Engine    //ndplint:nosnap cached wiring, set at construction
	cfg     *config.Config //ndplint:nosnap cached wiring, set at construction
	bridges []*Level1      //ndplint:nosnap topology from config; bridges snapshot themselves
	links   []*sim.Link    //ndplint:nosnap channel wiring from config; link busy-state is replayed

	// borrowed maps block address → receiver rank for cross-rank lends.
	borrowed *metadata.Borrowed

	// assign tracks cross-rank LB rounds by (giver rank, round tag).
	assign    map[schedKey]*assignState
	nextRound uint32

	// scatterQ holds messages awaiting channel transfer to each rank.
	scatterQ     [][]*msg.Message
	scatterBytes []uint64

	running []bool // per-channel loop active
	idle    map[int]bool
	rng     *sim.RNG

	// Per-channel pre-bound callbacks and reused batch buffers. One batch
	// is in flight per channel (running[ch]), so the buffers are safe to
	// recycle between finishBatch and the next step.
	chRanks   [][]int        //ndplint:nosnap topology constant from config
	stepFns   []func()       //ndplint:nosnap wiring, rebound at construction
	finishFns []func()       //ndplint:nosnap wiring, rebound at construction
	batchDown [][]l2Delivery //ndplint:nosnap in flight only while the channel link is busy
	batchUp   [][]l2Delivery //ndplint:nosnap in flight only while the channel link is busy

	st Stats2

	// Fault-injection state; nil when no fault plan is attached.
	fi *faultL2

	// Instruments, bound by BindMetrics; nil no-ops when metrics are off.
	mBatch    *metrics.Histogram // bytes per channel batch (scatter + gather)
	mLBBudget *metrics.Histogram // workload budget per cross-rank SCHEDULE
}

// BindMetrics attaches the level-2 bridge's instruments to reg.
func (l *Level2) BindMetrics(reg *metrics.Registry) {
	l.mBatch = reg.Histogram("l2_batch_bytes")
	l.mLBBudget = reg.Histogram("l2_lb_budget_workload")
}

// Stats2 holds level-2 counters.
type Stats2 struct {
	GatherBatches  uint64
	ScatterBatches uint64
	CrossRankBytes uint64
	LBRounds       uint64
	BlocksAssigned uint64
}

// NewLevel2 wires the level-2 bridge to the level-1 bridges. The transport
// selected by cfg.Level2 decides the link topology: the host runtime shares
// one DDR channel per channel group; DIMM-Link gives every rank a dedicated
// external link; ABC-DIMM serializes everything on one broadcast bus.
func NewLevel2(env Env, bridges []*Level1, rng *sim.RNG) *Level2 {
	cfg := env.Cfg()
	var links []*sim.Link
	switch cfg.Level2 {
	case config.L2DIMMLink:
		links = make([]*sim.Link, len(bridges))
		for i := range links {
			links[i] = sim.NewLink("dimm-link", cfg.DIMMLinkBytesPerCycle, 8)
		}
	case config.L2ABCDIMM:
		links = []*sim.Link{sim.NewLink("abc-bus", cfg.Timing.ChannelBytesPerCycle, 8)}
	default:
		links = make([]*sim.Link, cfg.Geometry.Channels)
		for i := range links {
			links[i] = sim.NewLink("channel", cfg.Timing.ChannelBytesPerCycle, 4)
		}
	}
	l2 := &Level2{
		env:          env,
		eng:          env.Engine(),
		cfg:          cfg,
		bridges:      bridges,
		links:        links,
		borrowed:     metadata.NewBorrowed(cfg.Metadata.BridgeBorrowedEntries, cfg.Metadata.BridgeBorrowedWays),
		assign:       make(map[schedKey]*assignState),
		nextRound:    1,
		scatterQ:     make([][]*msg.Message, len(bridges)),
		scatterBytes: make([]uint64, len(bridges)),
		running:      make([]bool, len(links)),
		idle:         make(map[int]bool),
		rng:          rng,
	}
	for _, b := range bridges {
		b.SetUp(l2)
	}
	l2.chRanks = make([][]int, len(links))
	l2.stepFns = make([]func(), len(links))
	l2.finishFns = make([]func(), len(links))
	l2.batchDown = make([][]l2Delivery, len(links))
	l2.batchUp = make([][]l2Delivery, len(links))
	for ch := range links {
		ch := ch
		l2.chRanks[ch] = l2.ranksOn(ch)
		l2.stepFns[ch] = func() { l2.step(ch) }
		l2.finishFns[ch] = func() { l2.finishBatch(ch) }
	}
	return l2
}

// Stats returns the level-2 counters.
func (l *Level2) Stats() Stats2 { return l.st }

// Links exposes the channel links for traffic accounting.
func (l *Level2) Links() []*sim.Link { return l.links }

// Start begins the periodic cross-rank scheduling sweep, offset from the
// level-1 sweeps by half a period.
func (l *Level2) Start() {
	cfg := l.cfg
	l.eng.After(cfg.IState+cfg.IState/2, l.sweep)
}

// RankAllIdle implements upLevel: a level-1 bridge reports a starved rank.
func (l *Level2) RankAllIdle(rank int) { l.idle[rank] = true }

// KickChannel implements upLevel: new up-bound traffic exists on rank's
// transport group.
func (l *Level2) KickChannel(rank int) {
	l.ensureLoop(l.groupOf(rank))
}

// groupOf maps a rank to its transport loop index.
func (l *Level2) groupOf(rank int) int {
	switch l.cfg.Level2 {
	case config.L2DIMMLink:
		return rank
	case config.L2ABCDIMM:
		return 0
	}
	return l.env.Map().ChannelOfRank(rank)
}

func (l *Level2) sweep() {
	cfg := l.cfg
	if cfg.Design.LoadBalancing() && len(l.bridges) > 1 {
		l.crossRankBalance()
	}
	for ch := range l.running {
		l.ensureLoop(ch)
	}
	l.eng.After(cfg.IState, l.sweep)
}

// crossRankBalance matches starved ranks with loaded ranks (Section VI-A:
// the level-2 bridge only assigns budgets and coordinates data among the
// level-1 bridges).
func (l *Level2) crossRankBalance() {
	cfg := l.cfg
	states := make([]sched.ChildState, len(l.bridges))
	for i, b := range l.bridges {
		states[i] = b.AggregateState()
		states[i].Idle = l.idle[i]
	}
	l.idle = make(map[int]bool)

	var receivers, givers []int
	var wthMax uint64 = 1
	for i, s := range states {
		if w := l.bridges[i].Wth(); w > wthMax {
			wthMax = w
		}
		per := uint64(cfg.Geometry.UnitsPerRank())
		if s.Idle || (cfg.LoadBalance.Adv && s.WQueue+s.ToArrive < wthMax) {
			receivers = append(receivers, i)
		} else if s.WQueue > wthMax*per/4 {
			givers = append(givers, i)
		}
	}
	if len(receivers) == 0 || len(givers) == 0 {
		return
	}
	// A rank-level refill feeds many units at once.
	rankWth := wthMax * uint64(cfg.Geometry.UnitsPerRank()) / 4
	queueOf := func(g int) uint64 { return states[g].WQueue }
	cmds := sched.Match(l.rng, receivers, givers, cfg.LoadBalance, rankWth, queueOf)
	now := uint64(l.eng.Now())
	for _, c := range cmds {
		l.st.LBRounds++
		l.mLBBudget.Observe(c.Budget)
		round := l.newRound()
		l.assign[schedKey{c.Giver, round}] = &assignState{receivers: c.Receivers, blockTo: make(map[uint64]int)}
		// Track is the giver rank: cross-rank rounds have no single unit.
		l.env.Trace().Record(trace.KindLB, c.Giver, now, now, "l2-schedule")
		l.bridges[c.Giver].CommandScheduleRank(c.Budget, round)
	}
}

// newRound allocates a level-2 round tag (odd).
func (l *Level2) newRound() uint32 {
	l.nextRound += 2
	return l.nextRound
}

// l2Delivery is one message of an in-flight channel batch with its rank.
type l2Delivery struct {
	rank int
	m    *msg.Message
}

func (l *Level2) ensureLoop(ch int) {
	if ch < 0 || ch >= len(l.running) || l.running[ch] {
		return
	}
	l.running[ch] = true
	l.eng.After(0, l.stepFns[ch])
}

// ranksOn lists the global rank indices served by one transport loop.
func (l *Level2) ranksOn(ch int) []int {
	switch l.cfg.Level2 {
	case config.L2DIMMLink:
		return []int{ch}
	case config.L2ABCDIMM:
		out := make([]int, len(l.bridges))
		for i := range out {
			out[i] = i
		}
		return out
	}
	per := l.cfg.Geometry.RanksPerChannel
	out := make([]int, 0, per)
	for r := ch * per; r < (ch+1)*per; r++ {
		if r < len(l.bridges) {
			out = append(out, r)
		}
	}
	return out
}

// step performs one channel sweep: the host software scatters everything
// pending to this channel's ranks and gathers everything waiting in their
// up-mailboxes, as one aggregated transaction — one software overhead plus
// the channel occupancy of the combined bytes and the per-rank state polls.
func (l *Level2) step(ch int) {
	cfg := l.cfg
	eng := l.eng
	now := eng.Now()
	ranks := l.chRanks[ch]

	down := l.batchDown[ch][:0]
	up := l.batchUp[ch][:0]
	var bytes uint64
	budget := cfg.Timing.HostBatchBytes

	for _, r := range ranks {
		// Scatter everything pending for this rank (bounded by the
		// batch budget; a full down-hop retransmit buffer parks the
		// rank's queue until acks free space).
		retry := l.fi != nil && l.fi.downRet != nil
		if !retry || !l.fi.downRet[r].Full() {
			for len(l.scatterQ[r]) > 0 && bytes < budget {
				m := l.scatterQ[r][0]
				l.scatterQ[r] = l.scatterQ[r][1:]
				l.scatterBytes[r] -= m.Size()
				bytes += m.Size()
				if retry {
					if m.Seq == 0 {
						l.fi.downSeq[r]++
						m.Seq = l.fi.downSeq[r]
						m.Sum = msg.Checksum(m)
					}
					l.fi.downRet[r].Track(m)
					if l.fi.downRet[r].Full() {
						break
					}
				}
				down = append(down, l2Delivery{r, m})
			}
		}
		// Gather the rank's up-bound messages.
		if bytes < budget {
			ms := l.bridges[r].DrainUp(budget - bytes)
			for _, m := range ms {
				bytes += m.Size()
				up = append(up, l2Delivery{r, m})
			}
		}
	}
	if len(down) == 0 && len(up) == 0 {
		// Keep polling while upstream work is still in progress.
		for _, r := range ranks {
			if l.bridges[r].HasWork() || l.scatterBytes[r] > 0 {
				eng.After(cfg.IMin(), l.stepFns[ch])
				return
			}
		}
		l.running[ch] = false
		return
	}
	// The host transport polls rank state over the channel and pays the
	// software batch overhead; hardware inter-DIMM links do neither.
	var poll uint64
	var overhead sim.Cycles
	if cfg.Level2 == config.L2Host {
		poll = uint64(len(ranks)) * stateMsgBytes
		overhead = cfg.Timing.HostForwardOverhead
	}
	end := l.links[ch].Reserve(now, bytes+poll) + overhead
	if len(down) > 0 {
		l.st.ScatterBatches++
	}
	if len(up) > 0 {
		l.st.GatherBatches++
	}
	l.st.CrossRankBytes += bytes
	l.mBatch.Observe(bytes)
	l.batchDown[ch] = down
	l.batchUp[ch] = up
	eng.At(end, l.finishFns[ch])
}

// finishBatch applies one completed channel batch: scattered messages reach
// their rank bridges, gathered ones are routed, and the sweep continues.
func (l *Level2) finishBatch(ch int) {
	down := l.batchDown[ch]
	up := l.batchUp[ch]
	for _, d := range down {
		l.bridges[d.rank].AcceptFromUp(d.m)
	}
	for _, d := range up {
		l.acceptUp(d.rank, d.m)
	}
	for i := range down {
		down[i] = l2Delivery{}
	}
	for i := range up {
		up[i] = l2Delivery{}
	}
	l.batchDown[ch] = down[:0]
	l.batchUp[ch] = up[:0]
	l.step(ch)
}

// routeUp routes one gathered cross-rank message to its destination rank's
// scatter queue.
func (l *Level2) routeUp(m *msg.Message) {
	cfg := l.cfg
	amap := l.env.Map()

	if m.Sched && m.Dst < 0 {
		// Cross-rank lend: assign a receiver rank.
		srcRank := amap.GlobalRank(m.Src)
		as := l.assign[schedKey{srcRank, m.Round}]
		blk, _ := m.RouteAddr()
		blk = dram.BlockAlign(blk, cfg.GXfer)
		var rr int
		if v, hit := l.borrowed.Lookup(blk); hit {
			// First assignment wins for blocks straddling rounds.
			rr = int(v)
		} else if as != nil && len(as.receivers) > 0 {
			var ok bool
			rr, ok = as.blockTo[blk]
			if !ok {
				rr = as.receivers[as.next%len(as.receivers)]
				as.next++
				l.insertBorrowed(blk, rr)
				l.st.BlocksAssigned++
				as.blockTo[blk] = rr
			}
		} else {
			// Unknown round (stale): send the block home, healing
			// the giver's isLent bit.
			m.Sched = false
			m.Dst = amap.Home(blk)
			rr = amap.GlobalRank(m.Dst)
		}
		l.pushDown(rr, m)
		return
	}

	blk, routable := m.RouteAddr()
	if routable {
		blk = dram.BlockAlign(blk, cfg.GXfer)
		home := amap.Home(blk)
		if m.Type == msg.TypeData && m.Dst == home {
			// Return passing through: drop the table entry.
			l.borrowed.Remove(blk)
		} else if r, ok := l.borrowed.Lookup(blk); ok {
			// The level-2 table knows the receiver rank; the
			// receiving level-1 bridge resolves the unit.
			l.pushDown(int(r), m)
			return
		} else if m.Escalate {
			// Unknown here: the block must have returned home.
			m.Escalate = false
			m.Dst = home
		}
	}
	if m.Dst < 0 {
		m.Dst = amap.Home(blk)
	}
	l.pushDown(amap.GlobalRank(m.Dst), m)
}

// BorrowedEntry reports the level-2 dataBorrowed mapping for blk
// (diagnostic/invariant-test hook).
func (l *Level2) BorrowedEntry(blk uint64) (int, bool) {
	if !l.borrowed.Contains(blk) {
		return 0, false
	}
	v, _ := l.borrowed.Lookup(blk)
	return int(v), true
}

func (l *Level2) insertBorrowed(blk uint64, rank int) {
	ev, evicted := l.borrowed.Insert(blk, uint64(rank))
	if evicted {
		// Back-invalidate: the receiver rank must return the block.
		r := int(ev.Value)
		if r >= 0 && r < len(l.bridges) {
			l.bridges[r].ForceReturnBlock(ev.Key)
		}
	}
}

func (l *Level2) pushDown(rank int, m *msg.Message) {
	l.scatterQ[rank] = append(l.scatterQ[rank], m)
	l.scatterBytes[rank] += m.Size()
	l.ensureLoop(l.groupOf(rank))
}
