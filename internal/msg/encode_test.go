package msg

import (
	"reflect"
	"testing"
	"testing/quick"

	"ndpbridge/internal/task"
)

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	buf := Encode(nil, m)
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("Decode consumed %d of %d", n, len(buf))
	}
	return got
}

func TestEncodeDecodeTask(t *testing.T) {
	m := NewTask(17, 399, task.New(5, 9, 0xdeadbeef, 77, 11, 22))
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n  in  %+v\n  out %+v", m, got)
	}
}

func TestEncodeDecodeData(t *testing.T) {
	for _, m := range NewPool().SplitDataInto(nil, 2, 3, 0xc0ffee00, 300) {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m.Clone(), got) {
			t.Errorf("round trip mismatch: %+v vs %+v", m, got)
		}
	}
}

func TestEncodeDecodeState(t *testing.T) {
	m := NewState(4, 5, State{
		LMailbox: 1024, WQueue: 555, WFinished: 1 << 40,
		SchedList: []SchedOut{{BlockAddr: 0x100, Workload: 9}, {BlockAddr: 0x200, Workload: 11}},
	})
	got := roundTrip(t, m)
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n  in  %+v\n  out %+v", m, got)
	}
}

func TestEncodeDecodeStateEmpty(t *testing.T) {
	m := NewState(0, 1, State{})
	got := roundTrip(t, m)
	if got.State == nil || got.State.LMailbox != 0 || len(got.State.SchedList) != 0 {
		t.Errorf("empty state mismatch: %+v", got.State)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	m := NewTask(1, 2, task.New(0, 0, 1, 1, 42))
	buf := Encode(nil, m)
	for i := 0; i < len(buf); i++ {
		if _, _, err := Decode(buf[:i]); err == nil {
			t.Fatalf("Decode of %d-byte prefix should fail", i)
		}
	}
}

func TestDecodeUnknownType(t *testing.T) {
	buf := make([]byte, HeaderSize)
	buf[0] = 99
	if _, _, err := Decode(buf); err == nil {
		t.Error("unknown type should fail")
	}
}

func TestDecodeStream(t *testing.T) {
	// Multiple messages back-to-back decode in sequence.
	var buf []byte
	msgs := []*Message{
		NewTask(0, 1, task.New(1, 0, 0x10, 5)),
		NewState(1, 0, State{WQueue: 3}),
	}
	for _, m := range NewPool().SplitDataInto(nil, 2, 3, 0x2000, 100) {
		msgs = append(msgs, m.Clone()) // the decoder returns unpooled messages
	}
	for _, m := range msgs {
		buf = Encode(buf, m)
	}
	for i, want := range msgs {
		m, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("message %d mismatch", i)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Errorf("%d trailing bytes", len(buf))
	}
}

// Property: any well-formed task message round-trips exactly and its encoded
// length equals Size() for task messages.
func TestEncodeTaskProperty(t *testing.T) {
	f := func(fn uint16, ts uint32, addr uint64, wl uint32, nArgsRaw uint8, a0, a1, a2 uint64) bool {
		nArgs := int(nArgsRaw) % (task.MaxArgs + 1)
		args := []uint64{a0, a1, a2}[:nArgs]
		m := NewTask(7, 8, task.New(task.FuncID(fn), ts, addr, wl, args...))
		buf := Encode(nil, m)
		if uint64(len(buf)) != m.Size() {
			return false
		}
		got, n, err := Decode(buf)
		return err == nil && n == len(buf) && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
