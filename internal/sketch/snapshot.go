package sketch

import (
	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/task"
)

// This file is the sketch layer's serialization boundary: the heavy-hitter
// sketch (bucket tables plus its private RNG stream position, which decides
// every later probabilistic decay) and the reserved task queue (blocks in
// insertion order, so the byte stream is independent of map iteration
// order).

// SnapshotTo encodes the sketch: its shape, every bucket's entries in slot
// order, the decay RNG position, and the counters.
func (s *Sketch) SnapshotTo(e *checkpoint.Enc) {
	e.I64(int64(s.buckets))
	e.I64(int64(s.entries))
	for _, bucket := range s.table {
		e.U32(uint32(len(bucket)))
		for _, ent := range bucket {
			e.U64(ent.Addr)
			e.U64(ent.Workload)
		}
	}
	e.U64(s.rng.State())
	e.U64(s.inserted)
	e.U64(s.decays)
}

// SnapshotTo encodes the reserved queue: chunk accounting plus every live
// block in insertion order with its reserved tasks.
func (r *ReservedQueue) SnapshotTo(e *checkpoint.Enc) {
	e.I64(int64(r.chunkTasks))
	e.I64(int64(r.totalChunks))
	e.I64(int64(r.freeChunks))
	live := 0
	for _, b := range r.order {
		if _, ok := r.blocks[b]; ok {
			live++
		}
	}
	e.U32(uint32(live))
	for _, b := range r.order {
		bl, ok := r.blocks[b]
		if !ok {
			continue // stale order entry (block already taken)
		}
		e.U64(b)
		e.I64(int64(bl.chunks))
		e.U32(uint32(len(bl.tasks)))
		for _, t := range bl.tasks {
			task.EncodeTask(e, t)
		}
	}
}
