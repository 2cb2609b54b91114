package mailbox

import (
	"bytes"
	"testing"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/msg"
)

func encode(mb *Mailbox) []byte {
	var e checkpoint.Enc
	mb.SnapshotTo(&e)
	return e.Data()
}

func stateMsg(i uint32) *msg.Message {
	return &msg.Message{Type: msg.TypeState, Src: int(i), Dst: 0, Seq: i, State: &msg.State{WQueue: uint64(i)}}
}

// filled enqueues state messages with the given sequence numbers into a
// 1 KiB mailbox and dequeues two, so the head offset is non-zero.
func filled(t *testing.T, seqs ...uint32) *Mailbox {
	t.Helper()
	mb := New(1 << 10)
	for _, s := range seqs {
		if !mb.Enqueue(stateMsg(s)) {
			t.Fatal("enqueue failed")
		}
	}
	mb.Dequeue()
	mb.Dequeue()
	return mb
}

func TestMailboxSnapshotEncoding(t *testing.T) {
	want := encode(filled(t, 1, 2, 3, 4, 5))
	if !bytes.Equal(encode(filled(t, 1, 2, 3, 4, 5)), want) {
		t.Fatal("identical mailboxes encode differently")
	}
	for name, mb := range map[string]*Mailbox{
		"queue order":   filled(t, 1, 2, 3, 5, 4),
		"queued seq":    filled(t, 1, 2, 3, 4, 6),
		"one more item": filled(t, 1, 2, 3, 4, 5, 6),
	} {
		if bytes.Equal(encode(mb), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
	for name, mutate := range map[string]func(*Mailbox){
		"dequeue":  func(mb *Mailbox) { mb.Dequeue() },
		"used":     func(mb *Mailbox) { mb.used++ },
		"enqueued": func(mb *Mailbox) { mb.enqueued++ },
		"dequeued": func(mb *Mailbox) { mb.dequeued++ },
		"stalls": func(mb *Mailbox) {
			if mb.Enqueue(&msg.Message{Type: msg.TypeData, ChunkLen: 1 << 10}) {
				t.Fatal("oversized message fit")
			}
		},
		"peak": func(mb *Mailbox) { mb.peakUsed++ },
	} {
		mb := filled(t, 1, 2, 3, 4, 5)
		mutate(mb)
		if bytes.Equal(encode(mb), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
}

// TestMailboxSnapshotCapacityMismatch: a replay that sized a mailbox
// differently must fail the resume digest check, so capacity must show in
// the encoding even when both mailboxes are empty.
func TestMailboxSnapshotCapacityMismatch(t *testing.T) {
	if bytes.Equal(encode(New(512)), encode(New(1024))) {
		t.Fatal("mailboxes of different capacity encode alike")
	}
}
