package main

import (
	"time"

	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/mailbox"
	"ndpbridge/internal/metadata"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/sketch"
	"ndpbridge/internal/task"
)

// The microbenchmarks time direct calls into one layer's public functions
// at the Table I shapes of config.Default. Each builds its state once
// (untimed) and reports the median over microReps repetitions of the time
// per operation.

const (
	microReps = 5
	microOps  = 1 << 20 // operations per repetition
)

type microbenchmark struct {
	name string
	// build sets up the layer state and returns a body performing n
	// operations on it.
	build func() func(n int)
}

// run returns the median nanoseconds per operation.
func (m microbenchmark) run() float64 {
	body := m.build()
	body(microOps / 10) // warm-up
	var ns []float64
	for i := 0; i < microReps; i++ {
		t0 := time.Now()
		body(microOps)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/microOps)
	}
	return median(ns)
}

var microbenchmarks = []microbenchmark{
	{"sim.dispatch_ns", engineDispatch},
	{"dram.access_ns", bankAccess},
	{"mailbox.drain_ns", mailboxDrain},
	{"metadata.lookup_ns", borrowedLookup},
	{"task.pushpop_ns", queuePushPop},
	{"sketch.reserved_add_ns", reservedAdd},
}

// rng is a fixed xorshift stream, so every repetition does the same work.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// engineDispatch schedules n events at offsets up to 4096 cycles — past the
// engine's 1024-slot wheel, so its overflow heap works too — and runs them.
func engineDispatch() func(n int) {
	eng := sim.NewEngine()
	r := rng(1)
	fn := func() {}
	const batch = 4096
	return func(n int) {
		for done := 0; done < n; done += batch {
			now := eng.Now()
			for i := 0; i < batch; i++ {
				eng.At(now+sim.Cycles(r.next()%4096), fn)
			}
			if err := eng.Run(0); err != nil {
				panic(err)
			}
		}
	}
}

// bankAccess issues 64-byte reads at random offsets of one 64 MB bank.
func bankAccess() func(n int) {
	cfg := config.Default()
	b := dram.NewBank(cfg.Timing)
	r := rng(2)
	var now sim.Cycles
	return func(n int) {
		for i := 0; i < n; i++ {
			off := r.next() % cfg.Geometry.BankBytes &^ 63
			now = b.Access(now, off, 64, false, dram.AccessLocal, cfg.Energy.DRAMAccessPJPer64b)
		}
	}
}

// mailboxDrain enqueues task messages into a 1 MB mailbox and drains them
// in G_xfer-byte gathers, 64 messages in flight.
func mailboxDrain() func(n int) {
	cfg := config.Default()
	mb := mailbox.New(cfg.Buffers.MailboxBytes)
	m := msg.NewTask(0, 1, task.New(1, 0, 0, 10, 1, 2))
	return func(n int) {
		for done := 0; done < n; {
			for i := 0; i < 64; i++ {
				mb.Enqueue(m)
			}
			for !mb.Empty() {
				done += len(mb.DrainUpTo(cfg.GXfer))
			}
		}
	}
}

// borrowedLookup fills a unit-sized (1024×8) and a bridge-sized (65536×16)
// Borrowed table and looks up keys alternately in each, half of them hits.
func borrowedLookup() func(n int) {
	cfg := config.Default().Metadata
	unit := metadata.NewBorrowed(cfg.UnitBorrowedEntries, cfg.UnitBorrowedWays)
	bridge := metadata.NewBorrowed(cfg.BridgeBorrowedEntries, cfg.BridgeBorrowedWays)
	const gx = 256
	for i := 0; i < cfg.UnitBorrowedEntries; i++ {
		unit.Insert(uint64(i)*gx, uint64(i))
	}
	for i := 0; i < cfg.BridgeBorrowedEntries; i++ {
		bridge.Insert(uint64(i)*gx, uint64(i))
	}
	r := rng(3)
	return func(n int) {
		for i := 0; i < n; i += 2 {
			unit.Lookup(r.next() % uint64(2*cfg.UnitBorrowedEntries) * gx)
			bridge.Lookup(r.next() % uint64(2*cfg.BridgeBorrowedEntries) * gx)
		}
	}
}

// queuePushPop pushes tasks of four live epochs and pops them from both
// ends, as units (head) and work stealing (tail) do.
func queuePushPop() func(n int) {
	q := task.NewQueue()
	return func(n int) {
		for done := 0; done < n; done += 512 {
			for i := 0; i < 256; i++ {
				q.Push(task.New(1, uint32(i&3), uint64(i)*64, 10))
			}
			for ts := uint32(0); ts < 4; ts++ {
				for i := 0; i < 32; i++ {
					q.Pop(ts)
					q.PopTail(ts)
				}
			}
		}
	}
}

// reservedAdd reserves tasks under random hot blocks of a Table I reserved
// queue (1280 chunks of G_xfer/64 tasks) and takes each block back once it
// holds a chunk's worth.
func reservedAdd() func(n int) {
	cfg := config.Default()
	chunk := int(cfg.GXfer / 64)
	rq := sketch.NewReservedQueue(cfg.Sketch.ReservedChunks, chunk)
	r := rng(4)
	var buf []task.Task
	t := task.New(1, 0, 0, 10)
	return func(n int) {
		for i := 0; i < n; i++ {
			blk := r.next() % 512 * cfg.GXfer
			if !rq.Add(blk, t) || rq.Len(blk) >= chunk {
				buf = rq.TakeAppend(buf[:0], blk)
			}
		}
	}
}
