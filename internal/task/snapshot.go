package task

import "ndpbridge/internal/checkpoint"

// This file is the task layer's serialization boundary: a full-fidelity
// encoding of Task (every field, including the simulator-side SpawnedAt and
// ID metadata the wire format omits) and the Queue snapshot hashed by
// checkpoints and the state-digest audit. Epoch FIFOs are encoded in
// ascending epoch order — the order the queue keeps them in — so the byte
// stream is a pure function of queue contents.

// EncodeTask appends t to e.
func EncodeTask(e *checkpoint.Enc, t Task) {
	e.U32(uint32(t.Func))
	e.U32(t.TS)
	e.U64(t.Addr)
	e.U32(t.Workload)
	e.U8(t.NArgs)
	for i := 0; i < int(t.NArgs); i++ {
		e.U64(t.Args[i])
	}
	e.U64(t.SpawnedAt)
	e.U64(t.ID)
}

// SnapshotTo encodes the queue: per-epoch FIFOs in ascending epoch order,
// each with its live tasks front to back.
func (q *Queue) SnapshotTo(e *checkpoint.Enc) {
	e.U32(uint32(len(q.epochs)))
	for _, f := range q.epochs {
		e.U32(f.ts)
		e.U32(uint32(f.len()))
		for _, t := range f.items[f.head:] {
			EncodeTask(e, t)
		}
	}
}
