// Package mailbox implements the in-DRAM mailbox region of NDPBridge
// (Section V-A): a ring buffer of outgoing messages whose head and tail
// pointers live in the unit controller. New messages are appended at the
// tail; the parent bridge's GATHER command drains from the head. When the
// region is full, the next enqueue stalls.
//
// The simulator stores message values rather than encoded bytes, but byte
// occupancy is accounted exactly using each message's wire size, so capacity
// pressure and the L_mailbox state reported to bridges behave as in hardware.
package mailbox

import (
	"ndpbridge/internal/msg"
)

// Mailbox is a byte-accounted FIFO ring of outgoing messages.
type Mailbox struct {
	capacity uint64
	used     uint64
	queue    []*msg.Message
	head     int

	// Accounting.
	enqueued uint64
	dequeued uint64
	stalls   uint64
	peakUsed uint64

	// drainBuf backs DrainUpTo's return slice so a mailbox drained every
	// bus round does not allocate. Valid only until the next DrainUpTo on
	// the same mailbox; every caller hands the batch off (or finishes
	// iterating it) before draining this mailbox again.
	drainBuf []*msg.Message //ndplint:nosnap scratch; contents owned by caller
}

// New returns an empty mailbox of the given byte capacity.
func New(capacity uint64) *Mailbox {
	if capacity == 0 {
		panic("mailbox: zero capacity")
	}
	return &Mailbox{capacity: capacity}
}

// Capacity returns the region size in bytes.
func (mb *Mailbox) Capacity() uint64 { return mb.capacity }

// Used returns the occupied bytes — the L_mailbox value of state messages.
func (mb *Mailbox) Used() uint64 { return mb.used }

// Len returns the number of queued messages.
func (mb *Mailbox) Len() int { return len(mb.queue) - mb.head }

// Empty reports whether no messages are waiting.
func (mb *Mailbox) Empty() bool { return mb.Len() == 0 }

// CanFit reports whether a message of n wire bytes fits.
func (mb *Mailbox) CanFit(n uint64) bool { return mb.used+n <= mb.capacity }

// Enqueue appends m. It returns false (a stall) when the region is full, in
// which case the unit controller must retry later (Section V-A).
//
//ndplint:hotpath
func (mb *Mailbox) Enqueue(m *msg.Message) bool {
	n := m.Size()
	if !mb.CanFit(n) {
		mb.stalls++
		return false
	}
	mb.queue = append(mb.queue, m)
	mb.used += n
	mb.enqueued++
	if mb.used > mb.peakUsed {
		mb.peakUsed = mb.used
	}
	return true
}

// PushFront re-inserts m at the head of the ring — the retry protocol's
// "refused drain" path, where a message pulled for transmission must go back
// in arrival order because the hop is backpressured. Returns false when the
// message no longer fits.
//
//ndplint:hotpath
func (mb *Mailbox) PushFront(m *msg.Message) bool {
	n := m.Size()
	if !mb.CanFit(n) {
		mb.stalls++
		return false
	}
	if mb.head > 0 {
		mb.head--
		mb.queue[mb.head] = m
	} else {
		mb.queue = append(mb.queue, nil)
		copy(mb.queue[1:], mb.queue)
		mb.queue[0] = m
	}
	mb.used += n
	if mb.used > mb.peakUsed {
		mb.peakUsed = mb.used
	}
	return true
}

// Peek returns the head message without removing it.
//
//ndplint:hotpath
func (mb *Mailbox) Peek() (*msg.Message, bool) {
	if mb.Len() == 0 {
		return nil, false
	}
	return mb.queue[mb.head], true
}

// Dequeue removes and returns the head message.
//
//ndplint:hotpath
func (mb *Mailbox) Dequeue() (*msg.Message, bool) {
	if mb.Len() == 0 {
		return nil, false
	}
	m := mb.queue[mb.head]
	mb.queue[mb.head] = nil
	mb.head++
	mb.used -= m.Size()
	mb.dequeued++
	if mb.head > 64 && mb.head*2 >= len(mb.queue) {
		n := copy(mb.queue, mb.queue[mb.head:])
		for i := n; i < len(mb.queue); i++ {
			mb.queue[i] = nil
		}
		mb.queue = mb.queue[:n]
		mb.head = 0
	}
	return m, true
}

// DrainUpTo removes messages from the head whose combined wire size does not
// exceed budget bytes. It always removes at least one message when the
// mailbox is non-empty: the transfer granularity is a floor on bus
// occupancy, not a cap on message size (and messages are ≤64 B ≤ G_xfer
// anyway). This models one GATHER of G_xfer bytes.
//
// The returned slice is only valid until the next DrainUpTo call on this
// mailbox.
//
//ndplint:hotpath
func (mb *Mailbox) DrainUpTo(budget uint64) []*msg.Message {
	out := mb.drainBuf[:0]
	var used uint64
	for {
		m, ok := mb.Peek()
		if !ok {
			break
		}
		if len(out) > 0 && used+m.Size() > budget {
			break
		}
		mb.Dequeue()
		out = append(out, m)
		used += m.Size()
		if used >= budget {
			break
		}
	}
	mb.drainBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Stats returns cumulative enqueue/dequeue/stall counts and peak occupancy.
func (mb *Mailbox) Stats() (enq, deq, stalls, peak uint64) {
	return mb.enqueued, mb.dequeued, mb.stalls, mb.peakUsed
}
