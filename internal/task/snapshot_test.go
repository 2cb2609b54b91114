package task

import (
	"bytes"
	"testing"

	"ndpbridge/internal/checkpoint"
)

func encodeTask(t Task) []byte {
	var e checkpoint.Enc
	EncodeTask(&e, t)
	return e.Data()
}

func encodeQueue(q *Queue) []byte {
	var e checkpoint.Enc
	q.SnapshotTo(&e)
	return e.Data()
}

func TestEncodeTaskFields(t *testing.T) {
	in := Task{
		Func: 7, TS: 3, Addr: 0xdead0000, Workload: 450, NArgs: 2,
		Args: [MaxArgs]uint64{11, 22}, SpawnedAt: 123456, ID: 42,
	}
	want := encodeTask(in)
	if !bytes.Equal(encodeTask(in), want) {
		t.Fatal("repeated encodes differ")
	}
	for name, mutate := range map[string]func(*Task){
		"Func":      func(tk *Task) { tk.Func++ },
		"TS":        func(tk *Task) { tk.TS++ },
		"Addr":      func(tk *Task) { tk.Addr++ },
		"Workload":  func(tk *Task) { tk.Workload++ },
		"NArgs":     func(tk *Task) { tk.NArgs++ },
		"Args[0]":   func(tk *Task) { tk.Args[0]++ },
		"Args[1]":   func(tk *Task) { tk.Args[1]++ },
		"SpawnedAt": func(tk *Task) { tk.SpawnedAt++ },
		"ID":        func(tk *Task) { tk.ID++ },
	} {
		got := in
		mutate(&got)
		if bytes.Equal(encodeTask(got), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
	// Trace identity and argument slots past NArgs are not task state.
	got := in
	got.Span = 9
	got.Args[MaxArgs-1] = 33
	if !bytes.Equal(encodeTask(got), want) {
		t.Error("Span or an unused argument slot changed the encoding")
	}
}

func TestQueueSnapshotEncoding(t *testing.T) {
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = Task{Func: FuncID(i), TS: uint32(i % 3), Addr: uint64(i) << 6, Workload: uint32(100 + i), ID: uint64(i + 1)}
	}
	build := func(ts []Task) *Queue {
		q := NewQueue()
		for _, tk := range ts {
			q.Push(tk)
		}
		return q
	}
	// Popped tasks leave no trace: a queue that popped the head of epochs 0
	// and 1 encodes like one that never held those tasks.
	q := build(tasks)
	q.Pop(0)
	q.Pop(1)
	want := encodeQueue(q)
	if got := encodeQueue(build(tasks[2:])); !bytes.Equal(got, want) {
		t.Fatal("popped tasks still show in the encoding")
	}

	swapped := append([]Task(nil), tasks[2:]...)
	swapped[1], swapped[4] = swapped[4], swapped[1] // both epoch 0: FIFO order flipped
	heavier := append([]Task(nil), tasks[2:]...)
	heavier[0].Workload++
	moved := append([]Task(nil), tasks[2:]...)
	moved[0].TS = 7
	for name, q := range map[string]*Queue{
		"one more task": build(tasks[1:]),
		"one fewer task": func() *Queue {
			q := build(tasks[2:])
			q.PopTail(2)
			return q
		}(),
		"order in an epoch": build(swapped),
		"task workload":     build(heavier),
		"task epoch":        build(moved),
	} {
		if bytes.Equal(encodeQueue(q), want) {
			t.Errorf("%s: encoding unchanged", name)
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
