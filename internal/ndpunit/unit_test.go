package ndpunit

import (
	"testing"

	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
	"ndpbridge/internal/trace"
)

// stubEnv is a minimal Env for unit-level tests.
type stubEnv struct {
	eng      *sim.Engine
	cfg      config.Config
	amap     *dram.AddrMap
	reg      *task.Registry
	epoch    uint32
	spawned  map[uint32]int
	done     map[uint32]int
	inflight int
	taskID   uint64
}

func newStubEnv(cfg config.Config) *stubEnv {
	return &stubEnv{
		eng:     sim.NewEngine(),
		cfg:     cfg,
		amap:    dram.NewAddrMap(cfg.Geometry),
		reg:     task.NewRegistry(),
		spawned: map[uint32]int{},
		done:    map[uint32]int{},
	}
}

func (e *stubEnv) Engine() *sim.Engine      { return e.eng }
func (e *stubEnv) Cfg() *config.Config      { return &e.cfg }
func (e *stubEnv) Map() *dram.AddrMap       { return e.amap }
func (e *stubEnv) Registry() *task.Registry { return e.reg }
func (e *stubEnv) CurrentEpoch() uint32     { return e.epoch }
func (e *stubEnv) TaskSpawned(ts uint32)    { e.spawned[ts]++ }
func (e *stubEnv) NextTaskID() uint64       { e.taskID++; return e.taskID }
func (e *stubEnv) TaskDone(ts uint32)       { e.done[ts]++ }
func (e *stubEnv) MsgStaged()               { e.inflight++ }
func (e *stubEnv) MsgDelivered()            { e.inflight-- }
func (e *stubEnv) Trace() *trace.Recorder   { return nil }
func (e *stubEnv) MsgPool() *msg.Pool       { return nil }

func smallCfg(d config.Design) config.Config {
	cfg := config.Default().WithDesign(d)
	cfg.Geometry = config.Geometry{
		Channels: 1, RanksPerChannel: 2, ChipsPerRank: 2, BanksPerChip: 2,
		BankBytes: 1 << 22, // 4 MB
	}
	cfg.Buffers.MailboxBytes = 1 << 16
	cfg.Metadata.BorrowedRegionBytes = 1 << 14
	cfg.Metadata.UnitBorrowedEntries = 32
	cfg.Metadata.UnitBorrowedWays = 4
	return cfg
}

func TestUnitExecutesSeededTask(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignB))
	var ran []uint64
	fn := env.reg.Register("probe", func(ctx task.Ctx, tk task.Task) {
		ran = append(ran, tk.Addr)
		ctx.Compute(10)
		ctx.Read(tk.Addr, 64)
	})
	u := New(0, env, sim.NewRNG(1))
	u.SeedTask(task.New(fn, 0, 100, 10))
	u.SeedTask(task.New(fn, 0, 200, 10))
	u.Kick()
	if err := env.eng.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(ran) != 2 || ran[0] != 100 || ran[1] != 200 {
		t.Fatalf("ran = %v", ran)
	}
	st := u.Stats()
	if st.Tasks != 2 {
		t.Errorf("Tasks = %d", st.Tasks)
	}
	if st.Busy == 0 {
		t.Error("busy time must be charged")
	}
	if env.done[0] != 2 || env.spawned[0] != 2 {
		t.Errorf("epoch accounting: spawned %d done %d", env.spawned[0], env.done[0])
	}
}

func TestUnitChildTaskLocalVsRemote(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignB))
	remoteAddr := env.amap.Base(3) + 64
	var fn task.FuncID
	fn = env.reg.Register("spawn", func(ctx task.Ctx, tk task.Task) {
		if tk.Addr == 100 { // root: spawn one local, one remote child
			ctx.Enqueue(task.New(fn, 0, 300, 1))
			ctx.Enqueue(task.New(fn, 0, remoteAddr, 1))
		}
		ctx.Compute(1)
	})
	u := New(0, env, sim.NewRNG(1))
	u.SeedTask(task.New(fn, 0, 100, 1))
	u.Kick()
	if err := env.eng.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Local child executed here; remote child left as a mailbox message.
	if u.Stats().Tasks != 2 {
		t.Errorf("Tasks = %d, want 2 (root + local child)", u.Stats().Tasks)
	}
	if u.MailboxUsed() == 0 {
		t.Error("remote child should be waiting in the mailbox")
	}
	ms, _ := u.DrainMailbox(1 << 20)
	if len(ms) != 1 || ms[0].Type != msg.TypeTask || ms[0].Dst != 3 {
		t.Fatalf("mailbox content wrong: %+v", ms)
	}
	if ms[0].Task.Addr != remoteAddr {
		t.Error("task address wrong")
	}
}

func TestUnitDeliverTaskExecutes(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignB))
	ran := 0
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ran++; ctx.Compute(5) })
	u := New(2, env, sim.NewRNG(1))
	addr := env.amap.Base(2) + 128
	env.TaskSpawned(0)
	env.MsgStaged()
	u.Deliver(msg.NewTask(0, 2, task.New(fn, 0, addr, 1)))
	if err := env.eng.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Errorf("delivered task did not run")
	}
	if env.inflight != 0 {
		t.Errorf("inflight = %d, want 0", env.inflight)
	}
}

func TestUnitBouncesTaskForNonLocalBlock(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignB))
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ctx.Compute(1) })
	u := New(2, env, sim.NewRNG(1))
	// Deliver a task whose data lives at unit 1 and is not borrowed here.
	wrong := env.amap.Base(1) + 64
	env.TaskSpawned(0)
	env.MsgStaged()
	u.Deliver(msg.NewTask(0, 2, task.New(fn, 0, wrong, 1)))
	if err := env.eng.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if u.Stats().Tasks != 0 {
		t.Error("non-local task must not execute")
	}
	if u.Stats().Bounces != 1 {
		t.Errorf("Bounces = %d, want 1", u.Stats().Bounces)
	}
	ms, _ := u.DrainMailbox(1 << 20)
	if len(ms) != 1 || ms[0].Dst != 1 {
		t.Fatalf("bounced message wrong: %+v", ms)
	}
}

func TestUnitBorrowedDataFlow(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignO))
	ran := 0
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) {
		ctx.Read(tk.Addr, 64) // reads from borrowed region
		ran++
	})
	u := New(2, env, sim.NewRNG(1))
	// Lend block of unit 1 to unit 2: deliver data messages then the task.
	blk := env.amap.Base(1) + 512
	for _, dm := range msg.SplitData(1, 2, blk, uint32(env.cfg.GXfer)) {
		env.MsgStaged()
		u.Deliver(dm)
	}
	env.eng.Run(0)
	if !u.IsLocal(blk + 10) {
		t.Fatal("borrowed block must be locally available")
	}
	env.TaskSpawned(0)
	env.MsgStaged()
	u.Deliver(msg.NewTask(1, 2, task.New(fn, 0, blk+16, 1)))
	env.eng.Run(0)
	if ran != 1 {
		t.Error("task on borrowed block must execute here")
	}
	if u.Stats().Borrowed != 1 {
		t.Errorf("Borrowed = %d, want 1", u.Stats().Borrowed)
	}
	// ForceReturn sends the block home.
	u.ForceReturn(blk)
	if u.IsLocal(blk) {
		t.Error("block must be gone after ForceReturn")
	}
	ms, _ := u.DrainMailbox(1 << 20)
	if len(ms) == 0 || ms[0].Type != msg.TypeData || ms[0].Dst != 1 {
		t.Fatalf("return messages wrong: %+v", ms)
	}
}

func TestUnitIsLentBlocksLocalExecution(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignO))
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ctx.Compute(1) })
	u := New(0, env, sim.NewRNG(1))
	addr := env.amap.Base(0) + 1024

	// Queue tasks, then lend the block away via SCHEDULE.
	u.SeedTask(task.New(fn, 0, addr, 50))
	u.SeedTask(task.New(fn, 0, addr, 50))
	u.CommandSchedule(100, 2)
	// The scheduled-out messages wait in the mailbox, unassigned.
	ms, _ := u.DrainMailbox(1 << 20)
	var dataMsgs, taskMsgs int
	for _, m := range ms {
		if !m.Sched || m.Dst != -1 {
			t.Fatalf("scheduled-out message must have Sched and Dst=-1: %+v", m)
		}
		switch m.Type {
		case msg.TypeData:
			dataMsgs++
		case msg.TypeTask:
			taskMsgs++
		}
	}
	if taskMsgs != 2 || dataMsgs == 0 {
		t.Fatalf("scheduled out %d tasks, %d data msgs", taskMsgs, dataMsgs)
	}
	// The block is now lent: local execution of a fresh task must bounce.
	if u.IsLocal(addr) {
		t.Error("lent block must not be local")
	}
	st := u.StateSnapshot()
	if len(st.SchedList) != 1 || st.SchedList[0].Workload != 100 {
		t.Fatalf("sched list wrong: %+v", st.SchedList)
	}
	// Second snapshot: list consumed.
	if len(u.StateSnapshot().SchedList) != 0 {
		t.Error("sched list must be consumed by the snapshot")
	}
}

func TestUnitReturnDataClearsIsLent(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignO))
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ctx.Compute(1) })
	u := New(0, env, sim.NewRNG(1))
	addr := env.amap.Base(0) + 2048
	u.SeedTask(task.New(fn, 0, addr, 10))
	u.CommandSchedule(1, 2)
	u.DrainMailbox(1 << 20)
	if u.IsLocal(addr) {
		t.Fatal("precondition: block lent")
	}
	// Return data messages arrive home.
	blk := dram.BlockAlign(addr, env.cfg.GXfer)
	for _, dm := range msg.SplitData(3, 0, blk, uint32(env.cfg.GXfer)) {
		env.MsgStaged()
		u.Deliver(dm)
	}
	env.eng.Run(0)
	if !u.IsLocal(addr) {
		t.Error("returned block must be local again")
	}
}

func TestUnitStateSnapshot(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignB))
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ctx.Compute(1) })
	u := New(0, env, sim.NewRNG(1))
	u.SeedTask(task.New(fn, 0, 64, 7))
	u.SeedTask(task.New(fn, 0, 128, 3))
	s := u.StateSnapshot()
	if s.WQueue != 10 {
		t.Errorf("WQueue = %d, want 10", s.WQueue)
	}
	if s.WFinished != 0 {
		t.Errorf("WFinished = %d, want 0", s.WFinished)
	}
	u.Kick()
	env.eng.Run(0)
	s = u.StateSnapshot()
	if s.WQueue != 0 || s.WFinished != 10 {
		t.Errorf("after run: WQueue=%d WFinished=%d", s.WQueue, s.WFinished)
	}
}

func TestUnitWorkStealingSelectsQueueTail(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignW))
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ctx.Compute(1) })
	u := New(0, env, sim.NewRNG(1))
	for i := uint64(0); i < 10; i++ {
		// One task per G_xfer block so stealing one task lends exactly
		// one block.
		u.SeedTask(task.New(fn, 0, env.cfg.GXfer*i, 10))
	}
	u.CommandSchedule(30, 2)
	ms, _ := u.DrainMailbox(1 << 20)
	taskMsgs := 0
	for _, m := range ms {
		if m.Type == msg.TypeTask {
			taskMsgs++
		}
	}
	if taskMsgs != 3 {
		t.Errorf("stole %d tasks, want 3 (30 workload / 10 each)", taskMsgs)
	}
	// Remaining tasks still run locally.
	u.Kick()
	env.eng.Run(0)
	if u.Stats().Tasks != 7 {
		t.Errorf("remaining tasks = %d, want 7", u.Stats().Tasks)
	}
}

func TestUnitMailboxBackpressure(t *testing.T) {
	cfg := smallCfg(config.DesignB)
	cfg.Buffers.MailboxBytes = 128 // tiny: ~4 task messages
	env := newStubEnv(cfg)
	remote := env.amap.Base(3)
	var fn task.FuncID
	fn = env.reg.Register("burst", func(ctx task.Ctx, tk task.Task) {
		for i := uint64(0); i < 20; i++ {
			ctx.Enqueue(task.New(fn, 0, remote+64*i, 1))
		}
	})
	u := New(0, env, sim.NewRNG(1))
	u.SeedTask(task.New(fn, 0, 0, 1))
	u.Kick()
	env.eng.Run(0)
	if u.Stats().Stalls == 0 {
		t.Error("tiny mailbox must stall")
	}
	// Draining repeatedly releases everything.
	got := 0
	for i := 0; i < 100 && got < 20; i++ {
		ms, _ := u.DrainMailbox(1 << 10)
		got += len(ms)
		env.eng.Run(0)
	}
	if got != 20 {
		t.Errorf("released %d messages, want 20", got)
	}
}

func TestUnitHotSchedulingPrefersHotBlock(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignO))
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ctx.Compute(1) })
	u := New(0, env, sim.NewRNG(1))
	hot := env.amap.Base(0) + 4096
	cold := env.amap.Base(0) + 8192
	// 8 tasks on the hot block, 1 on each of 8 cold blocks.
	for i := 0; i < 8; i++ {
		u.SeedTask(task.New(fn, 0, hot, 10))
		u.SeedTask(task.New(fn, 0, cold+uint64(i)*env.cfg.GXfer, 10))
	}
	u.CommandSchedule(80, 2)
	ms, _ := u.DrainMailbox(1 << 20)
	blocks := map[uint64]bool{}
	tasks := 0
	for _, m := range ms {
		switch m.Type {
		case msg.TypeData:
			blocks[m.BlockAddr] = true
		case msg.TypeTask:
			tasks++
		}
	}
	if !blocks[hot] {
		t.Error("hot block must be selected")
	}
	// Hot selection moves many tasks per block: far fewer blocks than
	// tasks.
	if len(blocks) > tasks/2+1 {
		t.Errorf("hot selection inefficient: %d blocks for %d tasks", len(blocks), tasks)
	}
}

func TestUnitIdleAndBacklog(t *testing.T) {
	env := newStubEnv(smallCfg(config.DesignB))
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ctx.Compute(1) })
	u := New(0, env, sim.NewRNG(1))
	if !u.Idle() || u.HasBacklog() {
		t.Error("fresh unit must be idle with no backlog")
	}
	u.SeedTask(task.New(fn, 0, 0, 1))
	if u.Idle() || !u.HasBacklog() {
		t.Error("seeded unit must not be idle")
	}
	u.Kick()
	env.eng.Run(0)
	if !u.Idle() || u.HasBacklog() {
		t.Error("drained unit must be idle again")
	}
}
