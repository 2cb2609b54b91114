package msg

import (
	"bytes"
	"testing"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
)

func taskMsg(seq uint32) *Message {
	m := NewTask(1, 2, task.New(0, 0, 0x1000, 4))
	m.Seq = seq
	m.Sum = Checksum(m)
	return m
}

func TestChecksumDetectsCorruption(t *testing.T) {
	m := taskMsg(7)
	if !m.Verify() {
		t.Fatal("fresh message should verify")
	}
	m.Corrupt()
	if m.Verify() {
		t.Fatal("corrupted message should fail verification")
	}
	// Payload mutation without re-stamping must also fail.
	m2 := taskMsg(7)
	m2.Task.Addr ^= 1
	if m2.Verify() {
		t.Fatal("mutated payload should fail verification")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := taskMsg(3)
	c := m.Clone()
	c.Seq = 99
	if m.Seq != 3 {
		t.Fatalf("clone mutation leaked into original: seq=%d", m.Seq)
	}
}

func TestRetransTimeoutAndBackoff(t *testing.T) {
	eng := sim.NewEngine()
	var sent []uint32
	r := NewRetrans(eng, 10, 40, 1<<20, func(m *Message) { sent = append(sent, m.Seq) })

	r.Track(taskMsg(1))
	// No ack: expect resends at t=10 (rto→20), t=30 (rto→40), t=70 (capped),
	// t=110, ... Run to t=115 and count.
	eng.RunUntil(115)
	want := []uint32{1, 1, 1, 1}
	if len(sent) != len(want) {
		t.Fatalf("got %d resends (%v), want %d", len(sent), sent, len(want))
	}
	st := r.Stats()
	if st.Retries != 4 || st.Tracked != 1 {
		t.Fatalf("stats = %+v, want retries=4 tracked=1", st)
	}
}

// resendTimes tracks one unacked message on a jittered buffer and records
// the cycle of every retransmission until horizon.
func resendTimes(seed uint64, horizon sim.Cycles) []sim.Cycles {
	eng := sim.NewEngine()
	var times []sim.Cycles
	r := NewRetrans(eng, 10, 1<<10, 1<<20, nil)
	r.send = func(m *Message) { times = append(times, eng.Now()) }
	r.SetJitter(seed)
	r.Track(taskMsg(1))
	eng.RunUntil(horizon)
	return times
}

func TestRetransJitterDesynchronizesStorms(t *testing.T) {
	// Simulate the aftermath of a shared fault: many hops lose a message at
	// the same instant. Without jitter every buffer retransmits at identical
	// cycles (a lockstep storm); with per-hop seeds the schedules diverge
	// while each individual schedule stays deterministic.
	const hops = 8
	const horizon = 5000
	schedules := make([][]sim.Cycles, hops)
	for h := 0; h < hops; h++ {
		schedules[h] = resendTimes(JitterSeed(1, uint64(h)), horizon)
		if len(schedules[h]) == 0 {
			t.Fatalf("hop %d never retransmitted", h)
		}
	}
	// Count, per retransmission round, how many distinct fire cycles the
	// fleet uses. Lockstep would give exactly 1 for every round.
	distinctRounds := 0
	for round := 1; round < 4; round++ { // round 0 fires at rto0 before any jitter applies
		seen := map[sim.Cycles]bool{}
		for h := 0; h < hops; h++ {
			if round < len(schedules[h]) {
				seen[schedules[h][round]] = true
			}
		}
		if len(seen) > hops/2 {
			distinctRounds++
		}
	}
	if distinctRounds < 2 {
		t.Fatalf("retry storm stayed synchronized: %v", schedules)
	}
	// Same seed → identical schedule (jitter is deterministic).
	again := resendTimes(JitterSeed(1, 3), horizon)
	if len(again) != len(schedules[3]) {
		t.Fatalf("jitter not deterministic: %v vs %v", again, schedules[3])
	}
	for i := range again {
		if again[i] != schedules[3][i] {
			t.Fatalf("jitter not deterministic at round %d: %v vs %v", i, again, schedules[3])
		}
	}
}

func TestRetransJitterSnapshotEncoding(t *testing.T) {
	// build tracks two messages and runs the sweep through a few resends,
	// advancing the jitter stream when jitter is on (seed != 0).
	build := func(seed uint64) *Retrans {
		eng := sim.NewEngine()
		r := NewRetrans(eng, 10, 1<<10, 1<<20, func(m *Message) {})
		if seed != 0 {
			r.SetJitter(seed)
		}
		r.Track(taskMsg(1))
		r.Track(taskMsg(2))
		eng.RunUntil(100)
		return r
	}
	encode := func(r *Retrans) []byte {
		enc := checkpoint.NewEnc(nil)
		r.SnapshotTo(enc)
		return enc.Data()
	}
	seed := JitterSeed(2, 7)
	ref := build(seed)
	if ref.Stats().Retries == 0 {
		t.Fatal("no resend; the jitter stream never advanced")
	}
	want := encode(ref)
	if !bytes.Equal(encode(build(seed)), want) {
		t.Fatal("identical buffers encode differently")
	}
	for name, r := range map[string]*Retrans{
		"jitter off":  build(0),
		"jitter seed": build(JitterSeed(2, 8)),
	} {
		if bytes.Equal(encode(r), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
	for name, mutate := range map[string]func(*Retrans){
		"jitter position": func(r *Retrans) { r.jrng.Uint64() },
		"ack":             func(r *Retrans) { r.Ack(1) },
		"deadline":        func(r *Retrans) { r.entries[0].deadline++ },
		"backoff":         func(r *Retrans) { r.entries[0].rto++ },
		"bytes":           func(r *Retrans) { r.bytes++ },
		"retries":         func(r *Retrans) { r.st.Retries++ },
	} {
		r := build(seed)
		mutate(r)
		if bytes.Equal(encode(r), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
}

func TestRetransAckStopsResend(t *testing.T) {
	eng := sim.NewEngine()
	var resent int
	r := NewRetrans(eng, 10, 40, 1<<20, func(m *Message) { resent++ })
	r.Track(taskMsg(1))
	eng.RunUntil(5)
	r.Ack(1)
	eng.RunUntil(200)
	if resent != 0 {
		t.Fatalf("acked message was resent %d times", resent)
	}
	if r.Len() != 0 || r.Bytes() != 0 {
		t.Fatalf("buffer not drained: len=%d bytes=%d", r.Len(), r.Bytes())
	}
	// Late/duplicate acks are ignored.
	r.Ack(1)
	if r.Stats().Acked != 1 {
		t.Fatalf("duplicate ack counted: %+v", r.Stats())
	}
}

func TestRetransNackResendsNextCycle(t *testing.T) {
	eng := sim.NewEngine()
	var resent int
	r := NewRetrans(eng, 100, 400, 1<<20, func(m *Message) { resent++ })
	r.Track(taskMsg(5))
	// The resend is deferred one cycle through the engine (a synchronous send
	// would let the receiver's ack/nack re-enter the buffer mid-sweep), so it
	// must not have fired yet but must fire long before the 100-cycle rto.
	r.Nack(5)
	if resent != 0 {
		t.Fatalf("nack resend fired synchronously (resent=%d)", resent)
	}
	eng.RunUntil(1)
	if resent != 1 {
		t.Fatalf("nack did not trigger a next-cycle resend (resent=%d)", resent)
	}
	st := r.Stats()
	if st.Nacked != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetransTrackIsIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRetrans(eng, 10, 40, 1<<20, func(m *Message) {})
	m := taskMsg(9)
	r.Track(m)
	r.Track(m.Clone()) // retransmit clone re-traverses the stamping path
	if r.Len() != 1 {
		t.Fatalf("idempotent Track added a duplicate entry: len=%d", r.Len())
	}
	if r.Stats().Tracked != 1 {
		t.Fatalf("tracked = %d, want 1", r.Stats().Tracked)
	}
}

func TestRetransWatermark(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRetrans(eng, 10, 40, 100, func(m *Message) {})
	seq := uint32(1)
	for !r.Full() {
		r.Track(taskMsg(seq))
		seq++
	}
	if r.Bytes() <= 100 {
		t.Fatalf("Full() with bytes=%d <= limit", r.Bytes())
	}
	// Draining under the watermark reopens the hop.
	for s := uint32(1); s < seq; s++ {
		r.Ack(s)
	}
	if r.Full() {
		t.Fatal("empty buffer reports Full")
	}
}

func TestRetransTakeAllAndDrop(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRetrans(eng, 10, 40, 1<<20, func(m *Message) {})
	r.Track(taskMsg(1))
	r.Track(taskMsg(2))
	if !r.Drop(1) || r.Drop(1) {
		t.Fatal("Drop should remove exactly once")
	}
	ms := r.TakeAll()
	if len(ms) != 1 || ms[0].Seq != 2 {
		t.Fatalf("TakeAll = %v", ms)
	}
	if r.Len() != 0 || r.Bytes() != 0 {
		t.Fatal("TakeAll left residue")
	}
}

func TestDedupFiltersAndCompacts(t *testing.T) {
	var d Dedup
	if !d.Accept(1) || !d.Accept(2) {
		t.Fatal("fresh in-order seqs rejected")
	}
	if d.Accept(2) || d.Accept(1) {
		t.Fatal("duplicates accepted")
	}
	// Out of order: 4 before 3; then 3 compacts the floor to 4.
	if !d.Accept(4) || !d.Accept(3) {
		t.Fatal("fresh out-of-order seqs rejected")
	}
	if d.Accept(3) || d.Accept(4) {
		t.Fatal("duplicates accepted after compaction")
	}
	if len(d.seen) != 0 {
		t.Fatalf("seen set not compacted: %v", d.seen)
	}
	if d.Dups() != 4 {
		t.Fatalf("dups = %d, want 4", d.Dups())
	}
}

func TestDedupMark(t *testing.T) {
	var d Dedup
	d.Mark(2)
	if d.Accept(2) {
		t.Fatal("marked seq accepted")
	}
	if !d.Accept(1) {
		t.Fatal("unrelated seq rejected")
	}
	// Accepting 1 compacts over the marked 2: floor should now cover both.
	if d.Accept(2) {
		t.Fatal("marked+compacted seq accepted")
	}
	// Mark below the floor is a no-op.
	d.Mark(1)
	if d.Dups() != 2 {
		t.Fatalf("dups = %d", d.Dups())
	}
}
