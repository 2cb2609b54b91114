// Package core orchestrates a full NDPBridge system simulation: it builds
// the NDP units, the communication fabric selected by the design (hardware
// bridges, host forwarding, RowClone, or host-only execution), runs the
// bulk-synchronous task runtime to completion, and aggregates the results.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"ndpbridge/internal/bridge"
	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/energy"
	"ndpbridge/internal/fault"
	"ndpbridge/internal/host"
	"ndpbridge/internal/metrics"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/ndpunit"
	"ndpbridge/internal/rowclone"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/stats"
	"ndpbridge/internal/task"
	"ndpbridge/internal/trace"
)

// App is a task-based application runnable on the system. Implementations
// register their task handlers, lay out their data, seed the first epoch,
// and optionally continue for more epochs.
type App interface {
	// Name identifies the application in results.
	Name() string
	// Prepare registers handlers and generates the dataset. It runs once
	// before the clock starts.
	Prepare(s *System) error
	// SeedEpoch injects the tasks of epoch ts. It returns false when no
	// more epochs remain (the run ends after the current work drains).
	SeedEpoch(s *System, ts uint32) bool
}

// System is one configured simulation instance. Build with New, run with
// Run; a System is single-use.
type System struct {
	cfg  config.Config
	eng  *sim.Engine
	amap *dram.AddrMap
	reg  *task.Registry
	rng  *sim.RNG
	pool *msg.Pool

	units   []*ndpunit.Unit
	bridges []*bridge.Level1
	l2      *bridge.Level2
	fwd     *host.Forwarder
	rc      *rowclone.Engine
	exec    *host.Executor

	epoch       uint32
	outstanding epochCounts
	inflight    uint64
	app         App
	done        bool
	ran         bool

	seededAny bool
	maxEvents uint64
	rec       *trace.Recorder

	met        *metrics.Registry
	mEpoch     *metrics.Histogram
	epochStart sim.Cycles

	taskID uint64 // run-unique task ID counter

	// Lifetime conservation totals (never decremented), the auditor's
	// ground truth: spawned − done must equal the outstanding sum, and
	// staged − delivered must equal the in-flight count, at all times.
	tasksSpawnedTotal  uint64
	tasksDoneTotal     uint64
	msgsStagedTotal    uint64
	msgsDeliveredTotal uint64

	// epochHook, when set, runs at every bulk-sync barrier — the instant
	// the finished epoch's accounting is provably empty — with the number
	// of the epoch that just completed. Checkpointing and the strong
	// audit checks hang off this hook.
	epochHook func(completed uint32)

	// Checkpointing (see checkpoint.go).
	ckptPath    string
	ckptApp     string // app label override for checkpoint metadata
	ckptEvery   sim.Cycles
	ckptNext    sim.Cycles
	ckptReq     atomic.Bool // set by signal handlers, read at barriers
	ckptErr     error
	ckptWritten int
	interrupted bool
	injSeed     uint64 // seed passed to AttachFaults, recorded in checkpoints
	digestBuf   []byte // reused StateDigest encode buffer

	// Resume verification (see checkpoint.go).
	resumeCk       *Checkpoint
	resumeErr      error
	resumeVerified bool

	// Invariant auditor (see audit.go).
	aud *auditor

	// Open-loop serving wiring (see serving.go). Nil for closed-loop runs,
	// which keeps every closed-loop code path and output byte-identical.
	serve *servingState

	// Fault injection and recovery (all nil/zero without AttachFaults).
	inj              *fault.Injector
	injPlan          *fault.Plan
	respawned        map[uint64]bool // task IDs already re-homed once
	wd               *sim.Watchdog
	progress         uint64 // monotone work counter the watchdog polls
	fMsgsLost        uint64
	fTasksRespawned  uint64
	fBlocksRecovered uint64
}

// epochCount is one epoch's number of spawned but unfinished tasks.
type epochCount struct {
	ts uint32
	n  uint64
}

// epochCounts holds the outstanding-task counts in ascending epoch order.
// An entry appears on its epoch's first spawn and leaves only at that
// epoch's barrier, so a zero count stays listed until then; snapshots
// encode exactly this key set. A task's children inherit its epoch, so
// few entries are ever live and a linear find is cheaper than a map probe.
type epochCounts []epochCount

// find returns epoch ts's position — where it is, or where it would be
// inserted — and whether it is there.
func (c epochCounts) find(ts uint32) (int, bool) {
	for i, ec := range c {
		if ec.ts >= ts {
			return i, ec.ts == ts
		}
	}
	return len(c), false
}

// of returns epoch ts's outstanding count (zero when unlisted).
func (c epochCounts) of(ts uint32) uint64 {
	if i, ok := c.find(ts); ok {
		return c[i].n
	}
	return 0
}

// remove drops epoch ts's entry at its barrier.
func (c *epochCounts) remove(ts uint32) {
	if i, ok := c.find(ts); ok {
		*c = slices.Delete(*c, i, i+1)
	}
}

// New builds a system for cfg. The configuration is validated.
func New(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:       cfg,
		eng:       sim.NewEngine(),
		pool:      msg.NewPool(),
		amap:      dram.NewAddrMap(cfg.Geometry),
		reg:       task.NewRegistry(),
		rng:       sim.NewRNG(cfg.Seed),
		maxEvents: 2_000_000_000,
	}

	if cfg.Design == config.DesignH {
		s.exec = host.NewExecutor(s)
		return s, nil
	}

	n := cfg.Geometry.Units()
	s.units = make([]*ndpunit.Unit, n)
	for i := 0; i < n; i++ {
		s.units[i] = ndpunit.New(i, s, s.rng.Split())
	}

	switch {
	case cfg.Design.UsesBridges():
		perRank := cfg.Geometry.UnitsPerRank()
		ranks := cfg.Geometry.Ranks()
		s.bridges = make([]*bridge.Level1, ranks)
		for r := 0; r < ranks; r++ {
			s.bridges[r] = bridge.NewLevel1(r, s, s.units[r*perRank:(r+1)*perRank], s.rng.Split())
		}
		s.l2 = bridge.NewLevel2(s, s.bridges, s.rng.Split())
	case cfg.Design == config.DesignR:
		s.fwd = host.NewForwarder(s, s.units)
		s.rc = rowclone.New(s, s.units)
	default: // DesignC
		s.fwd = host.NewForwarder(s, s.units)
	}
	return s, nil
}

// --- Env implementations (ndpunit.Env, bridge.Env, host.Env/ExecEnv) -----

// Engine returns the event engine.
func (s *System) Engine() *sim.Engine { return s.eng }

// Cfg returns the configuration.
func (s *System) Cfg() *config.Config { return &s.cfg }

// Map returns the address map.
func (s *System) Map() *dram.AddrMap { return s.amap }

// Registry returns the task handler registry.
func (s *System) Registry() *task.Registry { return s.reg }

// CurrentEpoch returns the bulk-sync epoch now executing.
func (s *System) CurrentEpoch() uint32 { return s.epoch }

// TaskSpawned records a newly created task of epoch ts.
func (s *System) TaskSpawned(ts uint32) {
	i, ok := s.outstanding.find(ts)
	if !ok {
		s.outstanding = slices.Insert(s.outstanding, i, epochCount{ts: ts})
	}
	s.outstanding[i].n++
	s.tasksSpawnedTotal++
}

// NextTaskID returns a run-unique task identifier (never 0).
func (s *System) NextTaskID() uint64 {
	s.taskID++
	return s.taskID
}

// TaskDone records a completed task and advances the epoch when the current
// one drains.
func (s *System) TaskDone(ts uint32) {
	i, ok := s.outstanding.find(ts)
	if !ok || s.outstanding[i].n == 0 {
		panic(fmt.Sprintf("core: TaskDone(%d) without outstanding task", ts))
	}
	s.outstanding[i].n--
	s.tasksDoneTotal++
	s.progress++
	s.checkAdvance()
}

// MsgStaged records a message entering flight.
func (s *System) MsgStaged() {
	s.inflight++
	s.msgsStagedTotal++
}

// MsgDelivered records a message leaving flight.
func (s *System) MsgDelivered() {
	if s.inflight == 0 {
		panic("core: MsgDelivered without inflight message")
	}
	s.inflight--
	s.msgsDeliveredTotal++
	s.progress++
	s.checkAdvance()
}

// checkAdvance ends the current epoch when no tasks of it remain and no
// messages are in flight (the bulk-synchronization barrier).
func (s *System) checkAdvance() {
	if s.done || !s.ran {
		return
	}
	if s.outstanding.of(s.epoch) != 0 || s.inflight != 0 {
		return
	}
	if s.serve != nil {
		// Open-loop serving: barriers are paced, termination is decided by
		// the traffic source, and epochs never re-seed (see serving.go).
		s.servingAdvance()
		return
	}
	s.closeEpoch()
	next := s.epoch + 1
	// Ask the application for more work unless tasks for the next epoch
	// were already spawned dynamically.
	more := s.app.SeedEpoch(s, next)
	if !more && s.outstanding.of(next) == 0 {
		s.done = true
		s.eng.Stop()
		return
	}
	s.openEpoch(next)
	// Barrier broadcast: a small fixed cost before units resume.
	s.eng.After(16, s.kickAll)
	// The new epoch may already be empty (e.g. pure-barrier epochs).
	s.eng.After(17, s.checkAdvance)
}

// closeEpoch ends the current epoch at a bulk-sync barrier, the instant its
// accounting is provably empty: the epoch hook chain (checkpoints, strong
// audit checks) runs, and the epoch's length is observed.
func (s *System) closeEpoch() {
	s.outstanding.remove(s.epoch)
	if s.epochHook != nil {
		s.epochHook(s.epoch)
	}
	s.mEpoch.Observe(s.eng.Now() - s.epochStart)
}

// openEpoch starts epoch n at the current cycle and marks the boundary in
// the trace.
func (s *System) openEpoch(n uint32) {
	now := s.eng.Now()
	s.rec.Epoch(n, now)
	s.epoch = n
	s.epochStart = now
}

func (s *System) kickAll() {
	if s.exec != nil {
		s.exec.Kick()
		return
	}
	for _, u := range s.units {
		u.Kick()
	}
}

// --- Application-facing API ----------------------------------------------

// Register registers a task handler and returns its FuncID.
func (s *System) Register(name string, h task.Handler) task.FuncID {
	return s.reg.Register(name, h)
}

// Seed injects an initial task at its data's home unit (or the host executor
// in design H) with no communication charge.
func (s *System) Seed(t task.Task) {
	s.seededAny = true
	if s.exec != nil {
		s.exec.Seed(t)
		return
	}
	s.units[s.amap.Home(t.Addr)].SeedTask(t)
}

// Units returns the number of NDP units.
func (s *System) Units() int { return s.cfg.Geometry.Units() }

// UnitBase returns the first address of unit u's bank.
func (s *System) UnitBase(u int) uint64 { return s.amap.Base(u) }

// DataBytesPerUnit returns the bank bytes available for application data
// (excluding the mailbox, borrowed-data and task-queue regions).
func (s *System) DataBytesPerUnit() uint64 {
	reserved := s.cfg.Buffers.MailboxBytes + s.cfg.Metadata.BorrowedRegionBytes + (64 << 10) + (64 << 10)
	return s.cfg.Geometry.BankBytes - reserved
}

// Rand returns the system's deterministic random stream (for dataset
// generation in Prepare).
func (s *System) Rand() *sim.RNG { return s.rng }

// MaxEvents returns the event budget (for progress/ETA reporting).
func (s *System) MaxEvents() uint64 { return s.maxEvents }

// AttachTrace installs the run's observation stream. Attach before Run;
// attachment order with AttachMetrics is free, because Run binds the
// recorder's histograms when it starts.
func (s *System) AttachTrace(r *trace.Recorder) { s.rec = r }

// MsgPool returns the run's shared message pool (ndpunit.Env).
func (s *System) MsgPool() *msg.Pool { return s.pool }

// SetCompatEventCore switches the run to the pre-batching event core: a pure
// min-heap engine (no calendar queue) and one engine event per delivered
// message (no unit inbox). The event-core equivalence tests run one system
// each way and require identical results and state digests.
func (s *System) SetCompatEventCore(on bool) {
	s.eng.SetHeapOnly(on)
	for _, u := range s.units {
		u.SetLegacyDeliver(on)
	}
}

// Trace returns the observation stream: the attached recorder, the zero
// recorder Run installs for a metrics-only run, or nil when nothing
// observes the run.
func (s *System) Trace() *trace.Recorder { return s.rec }

// AttachMetrics installs a metrics registry: it binds the fabric components'
// histograms and registers the system-level gauges the cycle sampler
// snapshots (mailbox occupancy, ready-queue depth, in-flight messages,
// bridge-buffer backlog); the latency histograms bind to the trace recorder
// when Run starts, and counters are exported from component stats when Run
// ends. Attach before Run; a nil registry is a no-op.
func (s *System) AttachMetrics(reg *metrics.Registry) {
	s.met = reg
	if reg == nil {
		return
	}
	s.mEpoch = reg.Histogram("epoch_cycles")
	for _, b := range s.bridges {
		b.BindMetrics(reg)
	}
	if s.l2 != nil {
		s.l2.BindMetrics(reg)
	}
	if s.fwd != nil {
		s.fwd.BindMetrics(reg)
	}

	reg.Gauge("inflight_msgs", func() uint64 { return s.inflight })
	reg.Gauge("mailbox_used_total", func() uint64 {
		var n uint64
		for _, u := range s.units {
			n += u.MailboxUsed() + u.ChipMailUsed()
		}
		return n
	})
	reg.Gauge("mailbox_used_max", func() uint64 {
		var m uint64
		for _, u := range s.units {
			if used := u.MailboxUsed(); used > m {
				m = used
			}
		}
		return m
	})
	reg.Gauge("ready_tasks_total", func() uint64 {
		var n uint64
		for _, u := range s.units {
			n += uint64(u.QueueLen())
		}
		if s.exec != nil {
			n += uint64(s.exec.QueueLen())
		}
		return n
	})
	if len(s.bridges) > 0 {
		reg.Gauge("bridge_backup_bytes", func() uint64 {
			var n uint64
			for _, b := range s.bridges {
				n += b.BackupBytes()
			}
			return n
		})
		reg.Gauge("bridge_up_bytes", func() uint64 {
			var n uint64
			for _, b := range s.bridges {
				n += b.UpPending()
			}
			return n
		})
		reg.Gauge("bridge_scatter_bytes", func() uint64 {
			var n uint64
			for _, b := range s.bridges {
				n += b.ScatterBacklog()
			}
			return n
		})
	}
}

// Metrics returns the attached registry (nil when metrics are off).
func (s *System) Metrics() *metrics.Registry { return s.met }

// --- Run ------------------------------------------------------------------

// Sentinel errors wrapped into Run's failure diagnostics so callers (the
// chaos campaign's oracles, scripts) can classify an outcome with errors.Is
// instead of matching prose. The full message still carries the epoch /
// backlog / fault evidence around the sentinel.
var (
	// ErrWatchdog: the progress watchdog observed no work for its full
	// period — the run hung with the engine still scheduling events.
	ErrWatchdog = errors.New("watchdog tripped")
	// ErrDeadlock: the event queue drained with work still outstanding.
	ErrDeadlock = errors.New("deadlocked")
	// ErrNotConverged: the engine hit its event budget before completion.
	ErrNotConverged = errors.New("did not converge")
)

// Run executes app to completion and returns the measured result.
func (s *System) Run(app App) (*stats.Result, error) {
	if s.ran {
		return nil, fmt.Errorf("core: System is single-use")
	}
	s.app = app
	if err := app.Prepare(s); err != nil {
		return nil, fmt.Errorf("core: prepare %s: %w", app.Name(), err)
	}
	if !app.SeedEpoch(s, 0) && !s.seededAny {
		return nil, fmt.Errorf("core: %s seeded no work", app.Name())
	}
	s.ran = true
	if s.rec == nil && s.met != nil {
		// A metrics-only run feeds its latency histograms through a
		// recorder that keeps no events or spans.
		s.rec = &trace.Recorder{}
	}
	s.rec.BindMetrics(s.met, len(s.units) > 0)
	// The first epoch starts at the clock edge; later boundaries come from
	// checkAdvance.
	s.openEpoch(0)
	s.met.StartSampler(s.eng, s.cfg.IState)

	for _, b := range s.bridges {
		b.Start()
	}
	if s.l2 != nil {
		s.l2.Start()
	}
	if s.fwd != nil {
		s.fwd.Start()
	}
	if s.rc != nil {
		s.rc.Start()
	}
	s.scheduleFaults()
	s.kickAll()

	engErr := s.eng.Run(s.maxEvents)
	// Deliberate early stops and detected divergences outrank the generic
	// convergence diagnostics: the engine was stopped on purpose.
	if s.aud != nil {
		if err := s.aud.log.Err(); err != nil {
			return nil, fmt.Errorf("core: %s/%s: %w", app.Name(), s.cfg.Design, err)
		}
	}
	if s.resumeErr != nil {
		return nil, s.resumeErr
	}
	if s.ckptErr != nil {
		return nil, fmt.Errorf("core: %s/%s: write checkpoint: %w", app.Name(), s.cfg.Design, s.ckptErr)
	}
	if s.interrupted {
		return nil, ErrInterrupted
	}
	if s.resumeCk != nil && s.done && !s.resumeVerified {
		return nil, fmt.Errorf("core: resume replay finished at epoch %d without reaching checkpoint marker epoch %d (version skew?)",
			s.epoch, s.resumeCk.Epoch)
	}
	if engErr != nil {
		return nil, fmt.Errorf("core: %s/%s %w: %w (epoch %d, outstanding %d, inflight %d)%s%s",
			app.Name(), s.cfg.Design, ErrNotConverged, engErr, s.epoch, s.outstanding.of(s.epoch), s.inflight, s.diagnose(), s.faultDiagnose())
	}
	if s.wd != nil && s.wd.Tripped() {
		return nil, fmt.Errorf("core: %s/%s %w at %d cycles: no progress (epoch %d, outstanding %d, inflight %d, backlog %d units)%s%s",
			app.Name(), s.cfg.Design, ErrWatchdog, s.eng.Now(), s.epoch, s.outstanding.of(s.epoch), s.inflight, s.backlogUnits(), s.diagnose(), s.faultDiagnose())
	}
	if !s.done {
		return nil, fmt.Errorf("core: %s/%s %w at %d cycles (epoch %d, outstanding %d, inflight %d, backlog %d units)%s",
			app.Name(), s.cfg.Design, ErrDeadlock, s.eng.Now(), s.epoch, s.outstanding.of(s.epoch), s.inflight, s.backlogUnits(), s.faultDiagnose())
	}
	return s.collect(app.Name()), nil
}

// diagnose renders livelock evidence: the hottest bouncing blocks and what
// every metadata level believes about them.
func (s *System) diagnose() string {
	type hot struct {
		unit int
		addr uint64
		n    uint64
	}
	var hs []hot
	for i, u := range s.units {
		if a, n := u.LastBounce(); n > 1000 {
			hs = append(hs, hot{i, a, n})
		}
	}
	out := ""
	for i, h := range hs {
		if i >= 4 {
			break
		}
		blk := dram.BlockAlign(h.addr, s.cfg.GXfer)
		home := s.amap.Home(h.addr)
		line := fmt.Sprintf("\n  unit %d bounced %d× on %#x (home %d, lent=%v)",
			h.unit, h.n, h.addr, home, s.units[home].LentAt(h.addr))
		if len(s.bridges) > 0 {
			hb := s.bridges[s.amap.GlobalRank(home)]
			if v, ok := hb.BorrowedEntry(blk); ok {
				line += fmt.Sprintf(" homeL1→%d", v)
			} else {
				line += " homeL1→miss"
			}
		}
		if s.l2 != nil {
			if v, ok := s.l2.BorrowedEntry(blk); ok {
				line += fmt.Sprintf(" L2→rank%d", v)
			} else {
				line += " L2→miss"
			}
		}
		for _, u := range s.units {
			for _, b := range u.BorrowedBlocks() {
				if b == blk {
					line += fmt.Sprintf(" heldBy=%d", u.ID())
				}
			}
		}
		out += line
	}
	return out
}

func (s *System) backlogUnits() int {
	n := 0
	for _, u := range s.units {
		if u.HasBacklog() {
			n++
		}
	}
	return n
}

// collect aggregates all counters into a Result.
func (s *System) collect(appName string) *stats.Result {
	r := &stats.Result{
		App:      appName,
		Design:   s.cfg.Design.String(),
		Makespan: s.eng.Now(),
		Events:   s.eng.Processed(),
	}
	if s.met != nil {
		r.TaskLatency = latencySummary(s.met.FindHistogram("task_latency_cycles"))
		r.MsgLatency = latencySummary(s.met.FindHistogram("msg_latency_cycles"))
	}
	if s.serve != nil {
		r.Serving = s.serve.src.Report(uint64(s.eng.Now()))
	}
	ec := energy.Counters{Makespan: s.eng.Now(), Units: s.cfg.Geometry.Units()}

	if s.exec != nil {
		// Design H: per-core records stand in for units.
		for i, b := range s.exec.BusyCycles() {
			r.Units = append(r.Units, stats.Unit{Busy: b, Tasks: s.exec.TasksRun()[i]})
			ec.BusyCycles += b
		}
		for _, l := range s.exec.Links() {
			bytes, _, _ := l.Stats()
			r.HostBytes += bytes
			ec.ChannelBytes += bytes
		}
		r.Finalize()
		r.TasksSpawned = s.exec.Spawned()
		// Host cores draw far more power than NDP cores; scale by the
		// clock and IPC advantage as a first-order model.
		ec.BusyCycles = uint64(float64(ec.BusyCycles) * s.cfg.Host.IPCFactor)
		ec.Units = s.cfg.Host.Cores
		r.Energy = energy.Breakdown(ec, s.cfg.Energy)
		return r
	}

	for _, u := range s.units {
		us := u.Stats()
		r.Units = append(r.Units, us)
		bs := u.Bank().Stats()
		ec.BusyCycles += us.Busy
		ec.LocalDRAMPJ += bs.EnergyPJ - bs.CommEnergyPJ
		ec.CommDRAMPJ += bs.CommEnergyPJ
		ec.SRAMAccesses += u.SRAMAccesses()
		r.MsgsDelivered += us.MsgsIn
		r.BlocksMigrated += us.Borrowed
		r.BlocksReturned += us.Returns
	}
	for _, b := range s.bridges {
		bs := b.Stats()
		r.IntraRankBytes += bs.BusBytes
		r.GatherRounds += bs.GatherRounds
		r.LBRounds += bs.LBRounds
		ec.ChannelBytes += bs.BusBytes
	}
	if s.l2 != nil {
		ls := s.l2.Stats()
		r.CrossRankBytes += ls.CrossRankBytes
		r.LBRounds += ls.LBRounds
		for _, l := range s.l2.Links() {
			bytes, _, _ := l.Stats()
			ec.ChannelBytes += bytes
		}
	}
	if s.fwd != nil {
		fs := s.fwd.Stats()
		r.HostBytes += fs.Bytes
		r.GatherRounds += fs.GatherBatches
		ec.ChannelBytes += fs.Bytes
	}
	if s.rc != nil {
		rs := s.rc.Stats()
		r.IntraRankBytes += rs.Bytes
		ec.ChannelBytes += rs.Bytes
	}
	s.exportCounters()
	r.Faults = s.faultResult()
	if rep := s.rec.CritPath(uint64(s.eng.Now())); rep != nil {
		dom, frac := rep.Dominant()
		paths := 0
		for _, ep := range rep.Epochs {
			paths += ep.PathSpans
		}
		r.Crit = &stats.Crit{
			Epochs:       len(rep.Epochs),
			PathSpans:    paths,
			BankBusy:     rep.Total.BankBusy,
			TaskQueue:    rep.Total.TaskQueue,
			GatherBatch:  rep.Total.GatherBatch,
			BridgeQueue:  rep.Total.BridgeQueue,
			LBMigration:  rep.Total.LBMigration,
			Retry:        rep.Total.Retry,
			HostRT:       rep.Total.HostRT,
			Slack:        rep.Total.Slack,
			Dominant:     dom,
			DominantPct:  100 * frac,
			DroppedSpans: rep.DroppedSpans,
		}
	}
	r.Finalize()
	r.Energy = energy.Breakdown(ec, s.cfg.Energy)
	return r
}

// exportCounters publishes the run's event counts to the metrics registry.
// Each value is read from the stats of the component that counts the event,
// so the registry keeps no count of its own, and a design exports only the
// counters of the components it has.
func (s *System) exportCounters() {
	if s.met == nil || len(s.units) == 0 {
		return
	}
	var bounces, borrowed, returned, stalls uint64
	for _, u := range s.units {
		us := u.Stats()
		bounces += us.Bounces
		borrowed += us.Borrowed
		stalls += us.Stalls
		// Returns also counts the home taking a returned block back. A
		// block leaves the borrower's dataBorrowed table only by being sent
		// home, so the blocks sent are those received less those held.
		returned += us.Borrowed - uint64(u.BorrowedCount())
	}
	s.met.Counter("bounces").Add(bounces)
	s.met.Counter("blocks_borrowed").Add(borrowed)
	s.met.Counter("blocks_returned").Add(returned)
	s.met.Counter("mailbox_stalls").Add(stalls)
	if len(s.bridges) == 0 {
		return
	}
	var lbRounds, wasted uint64
	for _, b := range s.bridges {
		bs := b.Stats()
		lbRounds += bs.LBRounds
		wasted += bs.WastedGathers
	}
	s.met.Counter("lb_rounds").Add(lbRounds)
	s.met.Counter("wasted_gathers").Add(wasted)
	s.met.Counter("l2_lb_rounds").Add(s.l2.Stats().LBRounds)
}

// latencySummary folds a latency histogram into the Result's percentile
// summary. All Histogram methods are nil-safe, so a missing histogram (or a
// run without metrics) yields the zero summary.
func latencySummary(h *metrics.Histogram) stats.Latency {
	return stats.Latency{
		P50: h.Quantile(0.50),
		P90: h.Quantile(0.90),
		P99: h.Quantile(0.99),
		Max: h.Max(),
	}
}
