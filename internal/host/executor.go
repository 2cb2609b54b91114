package host

import (
	"ndpbridge/internal/config"
	"ndpbridge/internal/ndpunit"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
)

// ExecEnv extends Env with the task runtime hooks the executor needs.
type ExecEnv interface {
	Env
	Registry() *task.Registry
	CurrentEpoch() uint32
	TaskSpawned(ts uint32)
	TaskDone(ts uint32)
	// NextTaskID returns a run-unique task identifier.
	NextTaskID() uint64
}

// Executor is the design-H baseline: the host CPU alone runs the task-based
// application. Its out-of-order cores are modeled as a per-cycle speedup
// factor over the wimpy NDP cores; all cores share one task pool (free work
// stealing in shared memory), a last-level cache, and the two DDR channels
// for memory traffic.
type Executor struct {
	env ExecEnv
	// eng/cfg cache env.Engine()/env.Cfg() — both stable for the system's
	// lifetime — so hot paths skip the interface dispatch.
	eng   *sim.Engine    //ndplint:nosnap cached wiring, set at construction
	cfg   *config.Config //ndplint:nosnap cached wiring, set at construction
	cores int
	busy  []bool
	queue *task.Queue
	llc   *ndpunit.Cache
	links []*sim.Link

	busyCycles []uint64
	tasks      []uint64
	spawned    uint64

	// Reused hot-path scratch: per-core execution contexts and pre-bound
	// completion callbacks (one task in flight per core), plus the shared
	// kick callback child-task enqueues schedule.
	ctxs    []hostCtx
	curTS   []uint32
	doneFns []func()
	kickFn  func()

	// rng is per-executor so concurrent simulations never share a stream:
	// each run draws the same deterministic sequence regardless of what
	// other Systems in the process are doing.
	rng *sim.RNG
}

// QueueLen returns the number of tasks waiting in the shared pool, for the
// ready-queue depth gauge.
func (e *Executor) QueueLen() int { return e.queue.Len() }

// NewExecutor builds the host execution runtime.
func NewExecutor(env ExecEnv) *Executor {
	cfg := env.Cfg()
	bw := cfg.Host.RandomAccessBW
	if bw == 0 {
		bw = cfg.Timing.ChannelBytesPerCycle
	}
	links := make([]*sim.Link, cfg.Geometry.Channels)
	for i := range links {
		links[i] = sim.NewLink("host-channel", bw, 4)
	}
	// Round the LLC down so its set count is a power of two.
	llcBytes := uint64(64 * 16)
	for llcBytes*2 <= cfg.Host.LLCBytes {
		llcBytes *= 2
	}
	e := &Executor{
		env:        env,
		eng:        env.Engine(),
		cfg:        cfg,
		cores:      cfg.Host.Cores,
		busy:       make([]bool, cfg.Host.Cores),
		queue:      task.NewQueue(),
		llc:        ndpunit.NewCache(int(llcBytes), 16, 64),
		links:      links,
		busyCycles: make([]uint64, cfg.Host.Cores),
		tasks:      make([]uint64, cfg.Host.Cores),
		rng:        sim.NewRNG(0x415e),
	}
	e.ctxs = make([]hostCtx, cfg.Host.Cores)
	e.curTS = make([]uint32, cfg.Host.Cores)
	e.doneFns = make([]func(), cfg.Host.Cores)
	for c := 0; c < cfg.Host.Cores; c++ {
		c := c
		e.doneFns[c] = func() { e.taskDone(c) }
	}
	e.kickFn = e.Kick
	return e
}

// Links exposes the channel links for traffic accounting.
func (e *Executor) Links() []*sim.Link { return e.links }

// BusyCycles returns per-core busy cycles.
func (e *Executor) BusyCycles() []uint64 { return e.busyCycles }

// TasksRun returns per-core executed task counts.
func (e *Executor) TasksRun() []uint64 { return e.tasks }

// Seed inserts an initial task.
func (e *Executor) Seed(t task.Task) {
	e.env.TaskSpawned(t.TS)
	e.spawned++
	if t.ID == 0 {
		t.ID = e.env.NextTaskID()
	}
	t.SpawnedAt = e.eng.Now()
	e.queue.Push(t)
}

// Kick wakes all idle cores.
func (e *Executor) Kick() {
	for c := 0; c < e.cores; c++ {
		e.tryStart(c)
	}
}

// Pending reports whether runnable or future tasks remain queued.
func (e *Executor) Pending() bool { return e.queue.Len() > 0 }

func (e *Executor) tryStart(c int) {
	if e.busy[c] {
		return
	}
	t, ok := e.queue.Pop(e.env.CurrentEpoch())
	if !ok {
		return
	}
	e.busy[c] = true
	eng := e.eng
	now := eng.Now()
	rec := e.env.Trace()
	// A freed core can pop a task slightly before its logical spawn cursor
	// (the queue is shared); clamp those to zero queueing latency.
	execSpan := rec.TaskStart(t.Span, t.ID, min(t.SpawnedAt, now), c, now)
	e.ctxs[c] = hostCtx{e: e, start: now, cursor: now + e.cfg.Host.DispatchCost, span: execSpan}
	e.env.Registry().Handler(t.Func)(&e.ctxs[c], t)
	end := e.ctxs[c].cursor
	if end <= now {
		end = now + 1
	}
	e.busyCycles[c] += end - now
	e.tasks[c]++
	rec.TaskEnd(execSpan, c, now, end, e.env.Registry().Name(t.Func))
	e.curTS[c] = t.TS
	eng.At(end, e.doneFns[c])
}

// taskDone is core c's task-completion event body.
func (e *Executor) taskDone(c int) {
	e.busy[c] = false
	e.env.TaskDone(e.curTS[c])
	e.tryStart(c)
}

// hostCtx implements task.Ctx for host execution. Computation is scaled by
// the host's clock and IPC advantage; memory accesses hit the shared LLC or
// cross the DDR channel of the address's home bank.
type hostCtx struct {
	e      *Executor
	start  sim.Cycles
	cursor sim.Cycles
	// span is the running task's (open) execution span, which children
	// reference as their causal parent (see execCtx in ndpunit). Zero when
	// flow tracing is off.
	span uint32
}

var (
	_ task.Ctx    = (*hostCtx)(nil)
	_ task.EndCtx = (*hostCtx)(nil)
)

func (c *hostCtx) Unit() int          { return -1 }
func (c *hostCtx) Now() sim.Cycles    { return c.start }
func (c *hostCtx) Cursor() sim.Cycles { return c.cursor }
func (c *hostCtx) Rand() *sim.RNG     { return c.e.rng }

func (c *hostCtx) Compute(cycles sim.Cycles) {
	f := c.e.cfg.Host.IPCFactor
	if f <= 0 {
		f = 1
	}
	d := sim.Cycles(float64(cycles) / f)
	if d == 0 {
		d = 1
	}
	c.cursor += d
}

func (c *hostCtx) access(addr, n uint64) {
	if n == 0 {
		return
	}
	cfg := c.e.cfg
	hits, misses := c.e.llc.AccessRange(addr, n)
	c.cursor += sim.Cycles(hits) // LLC hit ≈ one NDP-core cycle
	if misses > 0 {
		amap := c.e.env.Map()
		ch := amap.ChannelOfRank(amap.RankOfAddr(addr))
		bytes := uint64(misses) * c.e.llc.LineBytes()
		end := c.e.links[ch].Reserve(c.cursor, bytes)
		// DRAM array latency on top of the channel occupancy.
		c.cursor = end + cfg.Timing.TRCD + cfg.Timing.TCAS
	}
}

func (c *hostCtx) Read(addr, n uint64)  { c.access(addr, n) }
func (c *hostCtx) Write(addr, n uint64) { c.access(addr, n) }

func (c *hostCtx) Enqueue(t task.Task) {
	// Shared memory: every child task is locally runnable.
	c.e.env.TaskSpawned(t.TS)
	c.e.spawned++
	if t.ID == 0 {
		t.ID = c.e.env.NextTaskID()
	}
	t.SpawnedAt = c.cursor
	t.Span = c.span
	c.e.queue.Push(t)
	// Wake an idle core at the task's earliest start.
	c.e.eng.At(c.cursor, c.e.kickFn)
}

// Spawned returns the number of child tasks created on the host.
func (e *Executor) Spawned() uint64 { return e.spawned }
