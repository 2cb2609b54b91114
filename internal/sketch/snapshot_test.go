package sketch

import (
	"bytes"
	"testing"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
)

type snapshotter interface{ SnapshotTo(*checkpoint.Enc) }

func encode(s snapshotter) []byte {
	var e checkpoint.Enc
	s.SnapshotTo(&e)
	return e.Data()
}

func TestSketchSnapshotEncoding(t *testing.T) {
	build := func(buckets int) *Sketch {
		s := New(buckets, 4, 1.08, sim.NewRNG(42))
		for i := uint64(0); i < 200; i++ {
			s.Observe((i%30)<<8, 10+i%7)
		}
		return s
	}
	ref := build(8)
	want := encode(ref)
	if !bytes.Equal(encode(build(8)), want) {
		t.Fatal("identical sketches encode differently")
	}
	hot, ok := ref.Hottest()
	if !ok {
		t.Fatal("empty sketch")
	}
	for name, mutate := range map[string]func(*Sketch){
		"rng position": func(s *Sketch) { s.rng.Uint64() },
		"observation":  func(s *Sketch) { s.Observe(hot.Addr, 1) },
		"removal":      func(s *Sketch) { s.Remove(hot.Addr) },
		"inserted":     func(s *Sketch) { s.inserted++ },
		"decays":       func(s *Sketch) { s.decays++ },
	} {
		s := build(8)
		mutate(s)
		if bytes.Equal(encode(s), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
	if bytes.Equal(encode(build(4)), want) {
		t.Error("sketches of different shape encode alike")
	}

	// Probabilistic decay draws from the encoded RNG position, so sketches
	// that encode alike stay alike under the same future observations.
	a, b := build(8), build(8)
	for i := uint64(0); i < 500; i++ {
		a.Observe((i%60)<<8, 5)
		b.Observe((i%60)<<8, 5)
	}
	if a.decays == ref.decays {
		t.Fatal("no decay fired; the probe exercises nothing")
	}
	if !bytes.Equal(encode(a), encode(b)) {
		t.Fatal("equal sketches diverged under equal observations")
	}
}

func TestReservedQueueSnapshotEncoding(t *testing.T) {
	type add struct {
		block uint64
		t     task.Task
	}
	var adds []add
	for i := 0; i < 10; i++ {
		blk := uint64(i%3) << 12
		adds = append(adds, add{blk, task.Task{TS: 1, Addr: blk + uint64(i), Workload: uint32(i + 1)}})
	}
	build := func(adds []add) *ReservedQueue {
		q := NewReservedQueue(8, 2)
		for _, a := range adds {
			if !q.Add(a.block, a.t) {
				t.Fatalf("add %+v failed", a)
			}
		}
		return q
	}
	without := func(blk uint64) []add {
		var out []add
		for _, a := range adds {
			if a.block != blk {
				out = append(out, a)
			}
		}
		return out
	}
	// A taken block leaves no trace: its stale order entry is skipped and
	// its chunks are free again.
	q := build(adds)
	if got := q.TakeAppend(nil, 1<<12); len(got) == 0 {
		t.Fatal("nothing reserved under block 1<<12")
	}
	want := encode(q)
	if !bytes.Equal(encode(build(without(1<<12))), want) {
		t.Fatal("a taken block still shows in the encoding")
	}

	reordered := without(1 << 12)
	reordered[0], reordered[1] = reordered[1], reordered[0] // blocks 0 and 2 swap first use
	heavier := without(1 << 12)
	heavier[2].t.Workload++
	for name, q := range map[string]*ReservedQueue{
		"block order":   build(reordered),
		"task workload": build(heavier),
		"one more task": build(append(without(1<<12), add{2 << 12, task.Task{TS: 1}})),
		"one more block": func() *ReservedQueue {
			q := build(without(1 << 12))
			q.Add(5<<12, task.Task{TS: 1})
			return q
		}(),
	} {
		if bytes.Equal(encode(q), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
	for name, mutate := range map[string]func(*ReservedQueue){
		"free chunks":  func(q *ReservedQueue) { q.freeChunks-- },
		"block chunks": func(q *ReservedQueue) { q.blocks[0].chunks++ },
	} {
		q := build(without(1 << 12))
		mutate(q)
		if bytes.Equal(encode(q), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
	if bytes.Equal(encode(NewReservedQueue(8, 2)), encode(NewReservedQueue(8, 4))) {
		t.Error("queues of different chunk shape encode alike")
	}
}
