package msg

import (
	"testing"

	"ndpbridge/internal/sim"
)

// Watermark edge cases of the retransmit buffer. The watermark is a strict
// threshold: Full() reports bytes > limit, so a buffer filled to exactly the
// watermark still admits traffic — these tests pin that boundary down.

func stateMsg(seq uint32) *Message {
	// TypeState with nil payload has a fixed, known wire size.
	return &Message{Type: TypeState, Src: 0, Dst: 1, Seq: seq, State: &State{}}
}

func TestRetransExactWatermarkFill(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRetrans(eng, 10, 80, 0, func(*Message) {})
	m := stateMsg(1)
	sz := m.Size()

	// Fill to exactly one message's bytes with limit == sz: bytes == limit
	// is NOT full (strictly-greater threshold).
	r2 := NewRetrans(eng, 10, 80, sz, func(*Message) {})
	r2.Track(m)
	if r2.Bytes() != sz {
		t.Fatalf("bytes = %d, want %d", r2.Bytes(), sz)
	}
	if r2.Full() {
		t.Error("buffer filled to exactly the watermark reported Full")
	}
	// One byte over: full.
	r2.Track(stateMsg(2))
	if !r2.Full() {
		t.Error("buffer past the watermark did not report Full")
	}
	// Ack back down to the watermark: not full again.
	r2.Ack(2)
	if r2.Full() {
		t.Error("buffer drained back to the watermark still reports Full")
	}

	// Zero-limit buffer: any tracked message makes it full.
	r.Track(stateMsg(3))
	if !r.Full() {
		t.Error("zero-watermark buffer with one entry did not report Full")
	}
}

func TestRetransBackoffCapSaturation(t *testing.T) {
	const rto0, cap0 = 4, 32
	eng := sim.NewEngine()
	var sent []sim.Cycles
	r := NewRetrans(eng, rto0, cap0, 1<<20, func(*Message) { sent = append(sent, eng.Now()) })
	r.Track(stateMsg(1))

	// Never acked: timeouts double 4→8→16→32 and then saturate at the cap.
	// Run long enough for several capped resends.
	eng.RunUntil(400)
	if len(sent) < 6 {
		t.Fatalf("only %d retransmissions in 400 cycles", len(sent))
	}
	var gaps []sim.Cycles
	for i := 1; i < len(sent); i++ {
		gaps = append(gaps, sent[i]-sent[i-1])
	}
	// After enough doublings every gap must equal the cap exactly — the
	// backoff must stop growing (saturation) and never exceed the cap.
	for i, g := range gaps {
		if g > cap0+1 { // +1 for the engine-deferred send cycle
			t.Errorf("gap %d = %d exceeds backoff cap %d", i, g, cap0)
		}
	}
	last := gaps[len(gaps)-1]
	prev := gaps[len(gaps)-2]
	if last != prev {
		t.Errorf("backoff still changing at saturation: %v", gaps)
	}
	if r.Stats().Retries != uint64(len(sent)) {
		t.Errorf("retries stat %d, want %d", r.Stats().Retries, len(sent))
	}
}
