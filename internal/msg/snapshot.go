package msg

import (
	"sort"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/task"
)

// This file is the message layer's serialization boundary. Unlike the wire
// codec (encode.go), which models the hardware's 64-byte format, the
// snapshot encoding is full fidelity: it captures every field of a Message —
// including simulator-side metadata like StagedAt, Round, and the retry
// Seq/Sum — so checkpoints and the state-digest audit see exactly the state
// the simulator holds. The retry structures (Retrans, Dedup) serialize here
// too; their map/set members are emitted in sorted order so the byte stream
// is deterministic.

// EncodeSnapshot appends m's complete state to e.
func EncodeSnapshot(e *checkpoint.Enc, m *Message) {
	e.U8(uint8(m.Type))
	e.I64(int64(m.Src))
	e.I64(int64(m.Dst))
	e.U8(m.Index)
	e.U8(m.Total)
	e.Bool(m.Sched)
	e.U32(m.Round)
	e.Bool(m.Escalate)
	e.U64(m.StagedAt)
	e.U32(m.Seq)
	e.U32(m.Sum)
	task.EncodeTask(e, m.Task)
	e.U64(m.BlockAddr)
	e.U32(m.ChunkLen)
	e.Bool(m.State != nil)
	if m.State != nil {
		e.U64(m.State.LMailbox)
		e.U64(m.State.WQueue)
		e.U64(m.State.WFinished)
		e.U32(uint32(len(m.State.SchedList)))
		for _, so := range m.State.SchedList {
			e.U64(so.BlockAddr)
			e.U64(so.Workload)
		}
	}
}

// SnapshotTo encodes the retransmit buffer: every pending entry (message,
// absolute deadline, current backoff), the watermark accounting, and the
// stats. The armed flag is not encoded: it mirrors a sweep event queued on
// the engine, and snapshots record the engine's position, not its events.
func (r *Retrans) SnapshotTo(e *checkpoint.Enc) {
	e.U32(uint32(len(r.entries)))
	for i := range r.entries {
		EncodeSnapshot(e, r.entries[i].m)
		e.U64(r.entries[i].deadline)
		e.U64(r.entries[i].rto)
	}
	e.U64(r.bytes)
	e.U64(r.st.Tracked)
	e.U64(r.st.Acked)
	e.U64(r.st.Nacked)
	e.U64(r.st.Retries)
	// Jitter stream position. A xorshift64* state is never zero, so zero
	// doubles as the "jitter disabled" marker.
	if r.jrng != nil {
		e.U64(r.jrng.State())
	} else {
		e.U64(0)
	}
}

// SnapshotTo encodes the duplicate filter: floor, the out-of-order seen set
// in ascending order, and the duplicate count.
func (f *Dedup) SnapshotTo(e *checkpoint.Enc) {
	e.U32(f.floor)
	seqs := make([]uint32, 0, len(f.seen))
	for s := range f.seen {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	e.U32(uint32(len(seqs)))
	for _, s := range seqs {
		e.U32(s)
	}
	e.U64(f.dups)
}
