package core

import (
	"testing"

	"ndpbridge/internal/config"
	"ndpbridge/internal/task"
)

// spill keeps several epochs live at once. Each task hops across units in
// its own epoch, biased toward unit 0 so load balancing borrows blocks, and
// every eighth seed also spawns work one and two epochs ahead, so barrier
// snapshots hold future-epoch tasks in the queues and in outstanding.
type spill struct {
	epochs, tasks, chain int
	fn                   task.FuncID
}

func (a *spill) Name() string { return "spill" }

func (a *spill) Prepare(s *System) error {
	n := uint64(s.Units())
	gx := s.Cfg().GXfer
	a.fn = s.Register("spill.step", func(ctx task.Ctx, t task.Task) {
		ctx.Read(t.Addr, 64)
		ctx.Compute(120)
		hop, q := t.Args[0], t.Args[1]
		if hop > 0 {
			next := (q*2654435761 + hop*40503) % (2 * n)
			if next >= n {
				next = 0
			}
			ctx.Enqueue(task.New(a.fn, t.TS, s.UnitBase(int(next))+(q%64)*gx, 140, hop-1, q))
		}
		if hop == uint64(a.chain) && q%8 == 0 {
			for d := uint32(1); d <= 2 && int(t.TS+d) < a.epochs; d++ {
				u := int((q + uint64(d)*5) % n)
				ctx.Enqueue(task.New(a.fn, t.TS+d, s.UnitBase(u)+(q%64)*gx, 140, 1, q+uint64(d)))
			}
		}
	})
	return nil
}

func (a *spill) SeedEpoch(s *System, ts uint32) bool {
	if int(ts) >= a.epochs {
		return false
	}
	for q := 0; q < a.tasks; q++ {
		addr := s.UnitBase(q%s.Units()) + uint64(q%64)*s.Cfg().GXfer
		s.Seed(task.New(a.fn, ts, addr, 140, uint64(a.chain), uint64(q)))
	}
	return true
}

// TestBarrierDigestsPinned pins the checkpoint encoding: it folds the state
// digest taken at every barrier of a W run and an O run into one value and
// compares it with a recorded constant. Each run reaches a barrier where
// task queues and the borrowed tables are non-empty and outstanding lists
// two epochs, so a change to how any of them is stored must still encode
// the same bytes.
func TestBarrierDigestsPinned(t *testing.T) {
	var fold uint64
	for _, d := range []config.Design{config.DesignW, config.DesignO} {
		sys, err := New(testCfg(d))
		if err != nil {
			t.Fatal(err)
		}
		covered := false
		sys.addEpochHook(func(uint32) {
			fold = (fold ^ sys.StateDigest()) * 0x100000001b3
			queued, borrowed := 0, 0
			for _, u := range sys.units {
				queued += u.QueueLen()
				borrowed += u.BorrowedCount()
			}
			covered = covered || queued > 0 && borrowed > 0 && len(sys.outstanding) >= 2
		})
		if _, err := sys.Run(&spill{epochs: 4, tasks: 300, chain: 4}); err != nil {
			t.Fatal(err)
		}
		if !covered {
			t.Fatalf("%v: no barrier with queued tasks, borrowed blocks and two outstanding epochs", d)
		}
	}
	const want uint64 = 0x844b4aa4c253af3b
	if fold != want {
		t.Errorf("barrier digest fold = %#x, want %#x", fold, want)
	}
}
