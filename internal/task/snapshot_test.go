package task

import (
	"bytes"
	"testing"

	"ndpbridge/internal/checkpoint"
)

func TestTaskCodecRoundTrip(t *testing.T) {
	in := Task{
		Func: 7, TS: 3, Addr: 0xdead0000, Workload: 450, NArgs: 2,
		Args: [MaxArgs]uint64{11, 22}, SpawnedAt: 123456, ID: 42,
	}
	var e checkpoint.Enc
	EncodeTask(&e, in)
	d := checkpoint.NewDec(e.Data())
	out := DecodeTask(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if out != in {
		t.Errorf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

func TestQueueSnapshotRoundTrip(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 10; i++ {
		q.Push(Task{Func: FuncID(i), TS: uint32(i % 3), Addr: uint64(i) << 6, Workload: uint32(100 + i), ID: uint64(i + 1)})
	}
	// Pop a few so head offsets and workload sums are non-trivial.
	q.Pop(0)
	q.Pop(1)

	var e checkpoint.Enc
	q.SnapshotTo(&e)

	r := NewQueue()
	if err := r.RestoreFrom(checkpoint.NewDec(e.Data())); err != nil {
		t.Fatal(err)
	}
	if r.Len() != q.Len() {
		t.Fatalf("restored len %d, want %d", r.Len(), q.Len())
	}
	for _, ts := range []uint32{0, 1, 2} {
		if r.Workload(ts) != q.Workload(ts) {
			t.Errorf("epoch %d workload %d, want %d", ts, r.Workload(ts), q.Workload(ts))
		}
		for {
			want, ok1 := q.Pop(ts)
			got, ok2 := r.Pop(ts)
			if ok1 != ok2 {
				t.Fatalf("epoch %d pop availability diverged", ts)
			}
			if !ok1 {
				break
			}
			if got != want {
				t.Fatalf("epoch %d: got %+v, want %+v", ts, got, want)
			}
		}
	}
}

func TestQueueSnapshotDeterministic(t *testing.T) {
	// Encoding is a pure function of queue contents: repeated encodes
	// agree, and so do queues that received the same per-epoch FIFOs in
	// different epoch orders.
	perEpoch := map[uint32][]Task{}
	for i := 0; i < 60; i++ {
		ts := uint32(i%4) * 3
		perEpoch[ts] = append(perEpoch[ts], Task{TS: ts, Addr: uint64(i), Workload: uint32(i)})
	}
	build := func(order []uint32, interleave bool) *Queue {
		q := NewQueue()
		// An epoch that came and went leaves a recycled FIFO behind.
		q.Push(Task{TS: 99})
		q.Pop(99)
		if interleave {
			for i := 0; i < 15; i++ {
				for _, ts := range order {
					q.Push(perEpoch[ts][i])
				}
			}
			return q
		}
		for _, ts := range order {
			for _, tk := range perEpoch[ts] {
				q.Push(tk)
			}
		}
		return q
	}
	ref := build([]uint32{0, 3, 6, 9}, false)
	var want checkpoint.Enc
	ref.SnapshotTo(&want)
	var again checkpoint.Enc
	ref.SnapshotTo(&again)
	if !bytes.Equal(want.Data(), again.Data()) {
		t.Fatal("queue snapshot is not deterministic")
	}
	for _, c := range []struct {
		order      []uint32
		interleave bool
	}{
		{[]uint32{9, 6, 3, 0}, false},
		{[]uint32{3, 9, 0, 6}, false},
		{[]uint32{6, 0, 9, 3}, true},
	} {
		var got checkpoint.Enc
		build(c.order, c.interleave).SnapshotTo(&got)
		if !bytes.Equal(got.Data(), want.Data()) {
			t.Errorf("epoch order %v (interleaved %v) encodes differently", c.order, c.interleave)
		}
	}
}
