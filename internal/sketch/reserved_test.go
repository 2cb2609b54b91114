package sketch

import (
	"testing"

	"ndpbridge/internal/task"
)

func TestReservedAddTake(t *testing.T) {
	r := NewReservedQueue(10, 4)
	for i := uint64(0); i < 6; i++ {
		if !r.Add(0x100, task.New(0, 0, i, 2)) {
			t.Fatalf("Add %d failed", i)
		}
	}
	if r.Len(0x100) != 6 {
		t.Errorf("Len = %d", r.Len(0x100))
	}
	// 6 tasks at 4/chunk = 2 chunks used.
	if r.FreeChunks() != 8 {
		t.Errorf("FreeChunks = %d, want 8", r.FreeChunks())
	}
	if r.Workload(0x100) != 12 {
		t.Errorf("Workload = %d, want 12", r.Workload(0x100))
	}
	got := r.TakeAppend(nil, 0x100)
	if len(got) != 6 {
		t.Fatalf("TakeAppend returned %d", len(got))
	}
	for i, tk := range got {
		if tk.Addr != uint64(i) {
			t.Errorf("order broken at %d", i)
		}
	}
	if r.FreeChunks() != 10 || r.Total() != 0 {
		t.Errorf("chunks not freed: %d free, %d total", r.FreeChunks(), r.Total())
	}
	if again := r.TakeAppend(nil, 0x100); again != nil {
		t.Error("second TakeAppend should append nothing")
	}

	// TakeAppend parks the block's storage for reuse; the tasks it handed
	// out must not change when a later Add recycles that storage.
	for i := uint64(0); i < 6; i++ {
		r.Add(0x200, task.New(0, 0, 100+i, 3))
	}
	for i, tk := range got {
		if tk.Addr != uint64(i) || tk.Workload != 2 {
			t.Fatalf("taken task %d overwritten by a later Add: %+v", i, tk)
		}
	}
	// Tasks append after what dst already holds.
	prefix := []task.Task{task.New(0, 0, 99, 1)}
	if out := r.TakeAppend(prefix, 0x200); len(out) != 7 || out[0] != prefix[0] || out[1].Addr != 100 {
		t.Errorf("TakeAppend onto a prefix = %+v", out)
	}
}

func TestReservedExhaustion(t *testing.T) {
	r := NewReservedQueue(2, 2)
	// Block A takes both chunks.
	for i := uint64(0); i < 4; i++ {
		if !r.Add(0xa, task.New(0, 0, i, 1)) {
			t.Fatalf("Add %d should fit", i)
		}
	}
	if r.Add(0xa, task.New(0, 0, 9, 1)) {
		t.Error("fifth task needs a third chunk: must fail")
	}
	if r.Add(0xb, task.New(0, 0, 9, 1)) {
		t.Error("new block with no free chunk must fail")
	}
	if got := r.TakeAppend(nil, 0xa); len(got) != 4 {
		t.Fatalf("TakeAppend returned %d tasks, want 4", len(got))
	}
	if !r.Add(0xb, task.New(0, 0, 9, 1)) {
		t.Error("Add after free must succeed")
	}
}

func TestReservedDrain(t *testing.T) {
	r := NewReservedQueue(10, 4)
	r.Add(1, task.New(0, 0, 1, 1))
	r.Add(2, task.New(0, 0, 2, 1))
	r.Add(2, task.New(0, 0, 3, 1))
	got := r.Drain()
	if len(got) != 3 {
		t.Fatalf("Drain = %d tasks", len(got))
	}
	if r.Total() != 0 || r.FreeChunks() != 10 {
		t.Error("Drain incomplete")
	}
}

func TestReservedWorkloadMissing(t *testing.T) {
	r := NewReservedQueue(1, 1)
	if r.Workload(123) != 0 || r.Len(123) != 0 {
		t.Error("missing block should report zero")
	}
}

func TestReservedBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewReservedQueue(0, 1)
}
