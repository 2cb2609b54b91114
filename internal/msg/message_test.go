package msg

import (
	"testing"
	"testing/quick"

	"ndpbridge/internal/task"
)

func TestTaskMessageSize(t *testing.T) {
	m := NewTask(1, 2, task.New(0, 0, 0x100, 10))
	if m.Size() != HeaderSize+19 {
		t.Errorf("no-arg task size = %d, want %d", m.Size(), HeaderSize+19)
	}
	m3 := NewTask(1, 2, task.New(0, 0, 0x100, 10, 1, 2, 3))
	if m3.Size() != HeaderSize+19+24 {
		t.Errorf("3-arg task size = %d, want %d", m3.Size(), HeaderSize+43)
	}
	if m3.Size() > MaxSize {
		t.Errorf("task message exceeds 64 B: %d", m3.Size())
	}
}

func TestSplitData(t *testing.T) {
	ms := NewPool().SplitDataInto(nil, 3, 4, 0x4000, 256)
	wantTotal := (256 + MaxDataPayload - 1) / MaxDataPayload
	if len(ms) != wantTotal {
		t.Fatalf("split into %d, want %d", len(ms), wantTotal)
	}
	var sum uint32
	for i, m := range ms {
		if m.Type != TypeData || m.Src != 3 || m.Dst != 4 || m.BlockAddr != 0x4000 {
			t.Fatalf("sub-message %d fields wrong: %+v", i, m)
		}
		if int(m.Index) != i || int(m.Total) != wantTotal {
			t.Fatalf("sequence fields wrong at %d: %d/%d", i, m.Index, m.Total)
		}
		if m.Size() > MaxSize {
			t.Fatalf("sub-message %d size %d exceeds max", i, m.Size())
		}
		sum += m.ChunkLen
	}
	if sum != 256 {
		t.Fatalf("payload bytes = %d, want 256", sum)
	}
}

func TestSplitDataEmpty(t *testing.T) {
	if ms := NewPool().SplitDataInto(nil, 0, 1, 0, 0); ms != nil {
		t.Errorf("empty split should be nil, got %d", len(ms))
	}
}

func TestRouteAddr(t *testing.T) {
	tm := NewTask(0, 1, task.New(0, 0, 0xabc, 1))
	if a, ok := tm.RouteAddr(); !ok || a != 0xabc {
		t.Error("task RouteAddr wrong")
	}
	dm := NewPool().SplitDataInto(nil, 0, 1, 0xdef00, 10)[0]
	if a, ok := dm.RouteAddr(); !ok || a != 0xdef00 {
		t.Error("data RouteAddr wrong")
	}
	sm := NewState(0, 1, State{})
	if _, ok := sm.RouteAddr(); ok {
		t.Error("state messages must not be address-routed")
	}
}

func TestTypeString(t *testing.T) {
	if TypeTask.String() != "task" || TypeData.String() != "data" || TypeState.String() != "state" {
		t.Error("type names wrong")
	}
}

func TestStateSize(t *testing.T) {
	s := &State{SchedList: []SchedOut{{1, 2}, {3, 4}}}
	if StateSize(s) != HeaderSize+24+32 {
		t.Errorf("StateSize = %d", StateSize(s))
	}
}

// Property: splitting any block size yields exact payload coverage with
// contiguous indices and every sub-message within MaxSize.
func TestSplitDataProperty(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := uint32(nRaw)%8192 + 1
		ms := NewPool().SplitDataInto(nil, 0, 1, 0x1000, n)
		var sum uint32
		for i, m := range ms {
			if int(m.Index) != i || int(m.Total) != len(ms) {
				return false
			}
			if m.Size() > MaxSize || m.ChunkLen == 0 {
				return false
			}
			sum += m.ChunkLen
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
