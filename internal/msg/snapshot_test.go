package msg

import (
	"bytes"
	"testing"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/task"
)

func encodeMsg(m *Message) []byte {
	var e checkpoint.Enc
	EncodeSnapshot(&e, m)
	return e.Data()
}

func TestMessageSnapshotEncoding(t *testing.T) {
	full := func() *Message {
		return &Message{
			Type: TypeState, Src: 3, Dst: 9, Index: 1, Total: 2, Round: 4,
			StagedAt: 777, Seq: 12, Sum: 0xabcd, BlockAddr: 0x10000, ChunkLen: 52,
			Task: task.Task{Func: 2, TS: 1, Addr: 0x4000, Workload: 300, NArgs: 1, Args: [task.MaxArgs]uint64{5}, SpawnedAt: 700, ID: 9},
			State: &State{LMailbox: 64, WQueue: 1000, WFinished: 5000,
				SchedList: []SchedOut{{BlockAddr: 0x100, Workload: 10}, {BlockAddr: 0x200, Workload: 20}}},
		}
	}
	want := encodeMsg(full())
	if !bytes.Equal(encodeMsg(full()), want) {
		t.Fatal("identical messages encode differently")
	}
	for name, mutate := range map[string]func(*Message){
		"Type":               func(m *Message) { m.Type = TypeTask },
		"Src":                func(m *Message) { m.Src++ },
		"Dst":                func(m *Message) { m.Dst = -1 },
		"Index":              func(m *Message) { m.Index++ },
		"Total":              func(m *Message) { m.Total++ },
		"Sched":              func(m *Message) { m.Sched = true },
		"Round":              func(m *Message) { m.Round++ },
		"Escalate":           func(m *Message) { m.Escalate = true },
		"StagedAt":           func(m *Message) { m.StagedAt++ },
		"Seq":                func(m *Message) { m.Seq++ },
		"Sum":                func(m *Message) { m.Sum++ },
		"Task":               func(m *Message) { m.Task.SpawnedAt++ },
		"BlockAddr":          func(m *Message) { m.BlockAddr++ },
		"ChunkLen":           func(m *Message) { m.ChunkLen++ },
		"State":              func(m *Message) { m.State = nil },
		"State.LMailbox":     func(m *Message) { m.State.LMailbox++ },
		"State.WQueue":       func(m *Message) { m.State.WQueue++ },
		"State.WFinished":    func(m *Message) { m.State.WFinished++ },
		"SchedList length":   func(m *Message) { m.State.SchedList = m.State.SchedList[:1] },
		"SchedOut.BlockAddr": func(m *Message) { m.State.SchedList[1].BlockAddr++ },
		"SchedOut.Workload":  func(m *Message) { m.State.SchedList[1].Workload++ },
	} {
		m := full()
		mutate(m)
		if bytes.Equal(encodeMsg(m), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
	// Trace identity and pool bookkeeping are not message state.
	m := full()
	m.Flow, m.Span, m.HopAt = 1, 2, 3
	pooled := NewPool().Get()
	*pooled = *full()
	if !bytes.Equal(encodeMsg(m), want) || !bytes.Equal(encodeMsg(pooled), want) {
		t.Error("trace identity or pool bookkeeping changed the encoding")
	}
}

func TestDedupSnapshotEncoding(t *testing.T) {
	accept := func(seqs ...uint32) *Dedup {
		var f Dedup
		for _, s := range seqs {
			f.Accept(s)
		}
		return &f
	}
	encode := func(f *Dedup) []byte {
		var e checkpoint.Enc
		f.SnapshotTo(&e)
		return e.Data()
	}
	// 5 through 13 arrive out of order and land in the seen set; 2 repeats.
	want := encode(accept(1, 2, 5, 7, 9, 11, 13, 2))
	if !bytes.Equal(encode(accept(1, 2, 5, 7, 9, 11, 13, 2)), want) {
		t.Fatal("identical filters encode differently")
	}
	if !bytes.Equal(encode(accept(1, 13, 11, 9, 7, 5, 2, 2)), want) {
		t.Fatal("seen-set insertion order leaks into the encoding")
	}
	for name, f := range map[string]*Dedup{
		"floor":    accept(1, 2, 5, 7, 9, 11, 13, 2, 3),
		"seen set": accept(1, 2, 5, 7, 9, 11, 13, 2, 15),
		"dups":     accept(1, 2, 5, 7, 9, 11, 13, 2, 7),
	} {
		if bytes.Equal(encode(f), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
}
