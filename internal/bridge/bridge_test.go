package bridge

import (
	"testing"

	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/ndpunit"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
	"ndpbridge/internal/trace"
)

// testEnv implements Env plus ndpunit.Env for direct bridge tests.
type testEnv struct {
	eng      *sim.Engine
	cfg      config.Config
	amap     *dram.AddrMap
	reg      *task.Registry
	epoch    uint32
	inflight int
	done     int
	taskID   uint64
}

func newTestEnv(d config.Design) *testEnv {
	cfg := config.Default().WithDesign(d)
	cfg.Geometry = config.Geometry{
		Channels: 2, RanksPerChannel: 1, ChipsPerRank: 2, BanksPerChip: 2,
		BankBytes: 8 << 20,
	}
	return &testEnv{
		eng:  sim.NewEngine(),
		cfg:  cfg,
		amap: dram.NewAddrMap(cfg.Geometry),
		reg:  task.NewRegistry(),
	}
}

func (e *testEnv) Engine() *sim.Engine      { return e.eng }
func (e *testEnv) Cfg() *config.Config      { return &e.cfg }
func (e *testEnv) Map() *dram.AddrMap       { return e.amap }
func (e *testEnv) Registry() *task.Registry { return e.reg }
func (e *testEnv) CurrentEpoch() uint32     { return e.epoch }
func (e *testEnv) TaskSpawned(uint32)       {}
func (e *testEnv) NextTaskID() uint64       { e.taskID++; return e.taskID }
func (e *testEnv) TaskDone(uint32)          { e.done++ }
func (e *testEnv) MsgStaged()               { e.inflight++ }
func (e *testEnv) MsgDelivered()            { e.inflight-- }
func (e *testEnv) Trace() *trace.Recorder   { return nil }
func (e *testEnv) MsgPool() *msg.Pool       { return nil }

// build wires one rank's units and its level-1 bridge.
func build(t *testing.T, env *testEnv, rank int) ([]*ndpunit.Unit, *Level1) {
	t.Helper()
	per := env.cfg.Geometry.UnitsPerRank()
	units := make([]*ndpunit.Unit, per)
	rng := sim.NewRNG(7)
	for i := range units {
		units[i] = ndpunit.New(rank*per+i, env, rng.Split())
	}
	b := NewLevel1(rank, env, units, rng.Split())
	return units, b
}

func TestLevel1IntraRankDelivery(t *testing.T) {
	env := newTestEnv(config.DesignB)
	ran := 0
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ran++; ctx.Compute(5) })
	units, b := build(t, env, 0)
	b.Start()

	// Unit 0 emits a task for unit 3's data.
	dst := env.amap.Base(3) + 64
	var spawner task.FuncID
	spawner = env.reg.Register("s", func(ctx task.Ctx, tk task.Task) {
		ctx.Enqueue(task.New(fn, 0, dst, 10))
	})
	_ = spawner
	units[0].SeedTask(task.New(spawner, 0, env.amap.Base(0)+64, 10))
	units[0].Kick()
	env.eng.RunUntil(50_000)

	if ran != 1 {
		t.Fatalf("intra-rank task not delivered: ran=%d", ran)
	}
	if b.Stats().GatherRounds == 0 {
		t.Error("no gather rounds recorded")
	}
	if env.inflight != 0 {
		t.Errorf("inflight = %d, want 0", env.inflight)
	}
}

func TestLevel1CrossRankGoesUp(t *testing.T) {
	env := newTestEnv(config.DesignB)
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ctx.Compute(5) })
	units, b := build(t, env, 0)
	b.Start()

	// Destination is rank 1 (units 4..7): must land in the up-mailbox.
	dst := env.amap.Base(5) + 64
	var spawner task.FuncID
	spawner = env.reg.Register("s", func(ctx task.Ctx, tk task.Task) {
		ctx.Enqueue(task.New(fn, 0, dst, 10))
	})
	units[0].SeedTask(task.New(spawner, 0, env.amap.Base(0)+64, 10))
	units[0].Kick()
	env.eng.RunUntil(50_000)

	if b.UpPending() == 0 {
		t.Fatal("cross-rank message should be waiting for level 2")
	}
	ms := b.DrainUp(1 << 16)
	if len(ms) != 1 || ms[0].Type != msg.TypeTask || ms[0].Dst != 5 {
		t.Fatalf("up message wrong: %+v", ms)
	}
}

func TestLevel1LoadBalanceRound(t *testing.T) {
	env := newTestEnv(config.DesignO)
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) {
		ctx.Read(tk.Addr, 64)
		ctx.Compute(400)
	})
	units, b := build(t, env, 0)
	b.Start()

	// All work on unit 0, one block per task: classic imbalance.
	gx := env.cfg.GXfer
	for i := 0; i < 64; i++ {
		units[0].SeedTask(task.New(fn, 0, env.amap.Base(0)+uint64(i)*gx, 420))
	}
	units[0].Kick()
	env.eng.RunUntil(400_000)

	if b.Stats().LBRounds == 0 {
		t.Fatal("no load-balancing rounds triggered")
	}
	if b.Stats().BlocksAssigned == 0 {
		t.Fatal("no blocks assigned to receivers")
	}
	// Work must have spread: at least one other unit executed tasks.
	spread := 0
	for _, u := range units[1:] {
		if u.Stats().Tasks > 0 {
			spread++
		}
	}
	if spread == 0 {
		t.Error("no task ran anywhere but the giver")
	}
	if env.done != 64 {
		t.Errorf("completed %d tasks, want 64", env.done)
	}
}

func TestLevel1MetadataConsistencyAfterLB(t *testing.T) {
	env := newTestEnv(config.DesignO)
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) {
		ctx.Read(tk.Addr, 64)
		ctx.Compute(300)
	})
	units, b := build(t, env, 0)
	b.Start()
	gx := env.cfg.GXfer
	for i := 0; i < 32; i++ {
		units[0].SeedTask(task.New(fn, 0, env.amap.Base(0)+uint64(i)*gx, 320))
	}
	units[0].Kick()
	env.eng.RunUntil(400_000)

	// Invariant: every bridge table entry points at a unit that actually
	// holds the block, and every lent-out home block has exactly one
	// holder or is in flight (none here after quiescence).
	for i := 0; i < 32; i++ {
		blk := env.amap.Base(0) + uint64(i)*gx
		holder := -1
		count := 0
		for _, u := range units {
			for _, bb := range u.BorrowedBlocks() {
				if bb == blk {
					holder = u.ID()
					count++
				}
			}
		}
		if count > 1 {
			t.Fatalf("block %#x held by %d units", blk, count)
		}
		lent := units[0].LentAt(blk)
		if lent && count == 0 {
			t.Fatalf("block %#x marked lent but held nowhere", blk)
		}
		if !lent && count == 1 {
			t.Fatalf("block %#x not lent but held by unit %d", blk, holder)
		}
		if count == 1 {
			if v, ok := b.BorrowedEntry(blk); !ok || v != holder {
				t.Fatalf("bridge entry for %#x = (%d,%v), holder %d", blk, v, ok, holder)
			}
		}
	}
}

func TestLevel2CrossRankDelivery(t *testing.T) {
	env := newTestEnv(config.DesignB)
	ran := 0
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ran++; ctx.Compute(5) })
	u0, b0 := build(t, env, 0)
	u1, b1 := build(t, env, 1)
	_ = u1
	l2 := NewLevel2(env, []*Level1{b0, b1}, sim.NewRNG(3))
	b0.Start()
	b1.Start()
	l2.Start()

	dst := env.amap.Base(6) + 64 // rank 1
	var spawner task.FuncID
	spawner = env.reg.Register("s", func(ctx task.Ctx, tk task.Task) {
		ctx.Enqueue(task.New(fn, 0, dst, 10))
	})
	u0[0].SeedTask(task.New(spawner, 0, env.amap.Base(0)+64, 10))
	u0[0].Kick()
	env.eng.RunUntil(100_000)

	if ran != 1 {
		t.Fatalf("cross-rank task not delivered (ran=%d)", ran)
	}
	if l2.Stats().CrossRankBytes == 0 {
		t.Error("no cross-rank traffic recorded")
	}
	if env.inflight != 0 {
		t.Errorf("inflight = %d", env.inflight)
	}
}

func TestWastedGathersOnlyUnderFixedTrigger(t *testing.T) {
	for _, tr := range []config.Trigger{config.TriggerDynamic, config.TriggerFixedIMin} {
		env := newTestEnv(config.DesignB)
		env.cfg.Trigger = tr
		fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ctx.Compute(50_000) })
		units, b := build(t, env, 0)
		b.Start()
		// One long-running local task, empty mailboxes throughout.
		units[0].SeedTask(task.New(fn, 0, env.amap.Base(0)+64, 1))
		units[0].Kick()
		env.eng.RunUntil(40_000)
		wasted := b.Stats().WastedGathers
		if tr == config.TriggerDynamic && wasted != 0 {
			t.Errorf("dynamic trigger wasted %d gathers", wasted)
		}
		if tr == config.TriggerFixedIMin && wasted == 0 {
			t.Errorf("fixed trigger should waste gathers on empty mailboxes")
		}
	}
}
