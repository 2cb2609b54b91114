package rowclone

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

type testEnv struct {
	eng      *sim.Engine
	cfg      config.Config
	amap     *dram.AddrMap
	reg      *task.Registry
	inflight int
	taskID   uint64
}

func newTestEnv() *testEnv {
	cfg := config.Default().WithDesign(config.DesignR)
	cfg.Geometry = config.Geometry{
		Channels: 1, RanksPerChannel: 1, ChipsPerRank: 2, BanksPerChip: 2,
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
func (e *testEnv) CurrentEpoch() uint32     { return 0 }
func (e *testEnv) TaskSpawned(uint32)       {}
func (e *testEnv) NextTaskID() uint64       { e.taskID++; return e.taskID }
func (e *testEnv) TaskDone(uint32)          {}
func (e *testEnv) MsgStaged()               { e.inflight++ }
func (e *testEnv) MsgDelivered()            { e.inflight-- }
func (e *testEnv) Trace() *trace.Recorder   { return nil }
func (e *testEnv) MsgPool() *msg.Pool       { return nil }

func TestRowCloneDeliversIntraChip(t *testing.T) {
	env := newTestEnv()
	ran := 0
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { ran++; ctx.Compute(5) })
	units := make([]*ndpunit.Unit, 4)
	rng := sim.NewRNG(1)
	for i := range units {
		units[i] = ndpunit.New(i, env, rng.Split())
	}
	e := New(env, units)
	e.Start()

	// Units 0 and 1 share chip 0: the message must take the chip mailbox.
	dst := env.amap.Base(1) + 64
	var spawner task.FuncID
	spawner = env.reg.Register("s", func(ctx task.Ctx, tk task.Task) {
		ctx.Enqueue(task.New(fn, 0, dst, 10))
	})
	units[0].SeedTask(task.New(spawner, 0, env.amap.Base(0)+64, 10))
	units[0].Kick()
	env.eng.RunUntil(200)
	if units[0].ChipMailUsed() == 0 && ran == 0 {
		t.Fatal("same-chip message not routed to the chip mailbox")
	}
	env.eng.RunUntil(50_000)
	if ran != 1 {
		t.Fatalf("intra-chip task not delivered (ran=%d)", ran)
	}
	st := e.Stats()
	if st.Copies == 0 || st.Messages != 1 {
		t.Errorf("stats = %+v", st)
	}
	if env.inflight != 0 {
		t.Errorf("inflight = %d", env.inflight)
	}
	// Cross-chip messages must NOT enter the chip mailbox.
	units[0].SeedTask(task.New(spawner, 0, env.amap.Base(0)+128, 10))
	// Redirect: spawner always targets unit 1 — craft a direct cross-chip
	// emit instead via a new handler.
	var xchip task.FuncID
	xchip = env.reg.Register("x", func(ctx task.Ctx, tk task.Task) {
		ctx.Enqueue(task.New(fn, 0, env.amap.Base(3)+64, 10))
	})
	units[0].SeedTask(task.New(xchip, 0, env.amap.Base(0)+192, 10))
	units[0].Kick()
	env.eng.RunUntil(60_000)
	if units[0].MailboxUsed() == 0 {
		t.Error("cross-chip message should wait in the normal mailbox for the host")
	}
}

func TestRowCloneLatency(t *testing.T) {
	env := newTestEnv()
	var deliveredAt uint64
	fn := env.reg.Register("f", func(ctx task.Ctx, tk task.Task) { deliveredAt = uint64(ctx.Now()) })
	units := make([]*ndpunit.Unit, 4)
	rng := sim.NewRNG(1)
	for i := range units {
		units[i] = ndpunit.New(i, env, rng.Split())
	}
	e := New(env, units)
	e.Start()
	var spawner task.FuncID
	spawner = env.reg.Register("s", func(ctx task.Ctx, tk task.Task) {
		ctx.Enqueue(task.New(fn, 0, env.amap.Base(1)+64, 10))
	})
	units[0].SeedTask(task.New(spawner, 0, env.amap.Base(0)+64, 10))
	units[0].Kick()
	env.eng.RunUntil(100_000)
	if deliveredAt == 0 {
		t.Fatal("never delivered")
	}
	// Intra-chip delivery should take well under the host-forwarding path
	// (sweep + two channel crossings ≈ 600+ cycles).
	if deliveredAt > 1200 {
		t.Errorf("RowClone delivery at %d cycles, expected fast intra-chip path", deliveredAt)
	}
}
