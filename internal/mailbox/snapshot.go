package mailbox

import (
	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/msg"
)

// SnapshotTo encodes the mailbox: capacity (so mailboxes of different sizes
// never digest alike), the queued messages front to back, and the accounting
// counters.
func (mb *Mailbox) SnapshotTo(e *checkpoint.Enc) {
	e.U64(mb.capacity)
	e.U32(uint32(len(mb.queue) - mb.head))
	for i := mb.head; i < len(mb.queue); i++ {
		msg.EncodeSnapshot(e, mb.queue[i])
	}
	e.U64(mb.used)
	e.U64(mb.enqueued)
	e.U64(mb.dequeued)
	e.U64(mb.stalls)
	e.U64(mb.peakUsed)
}
