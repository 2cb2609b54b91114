package metadata

import "ndpbridge/internal/checkpoint"

// This file is the migration-metadata serialization boundary. Both
// structures encode their complete state — including the Borrowed table's
// LRU clock, which steers future evictions, so a replay whose eviction order
// drifted shows in the state digest.

// SnapshotTo encodes the bitmap sparsely: the shape (blocks, shift, word
// count), so bitmaps of different shapes never digest alike, then only the
// nonzero words with their index. A unit rarely lends more than a few dozen
// blocks out of a bank's few hundred thousand, so this keeps the per-unit
// bitmap contribution to a snapshot near zero instead of
// bank-capacity-proportional.
func (l *IsLent) SnapshotTo(e *checkpoint.Enc) {
	e.U64(l.blocks)
	e.U64(uint64(l.blockShift))
	e.U32(uint32(l.words()))
	if l.lentCount == 0 {
		// SetLent keeps lentCount equal to the bitmap popcount, so an
		// empty count means every word is zero — skip the scans.
		e.U32(0)
		e.I64(0)
		return
	}
	var nz uint32
	for _, w := range l.bits {
		if w != 0 {
			nz++
		}
	}
	e.U32(nz)
	for i, w := range l.bits {
		if w != 0 {
			e.U32(uint32(i))
			e.U64(w)
		}
	}
	e.I64(int64(l.lentCount))
}

// SnapshotTo encodes the set-associative table sparsely: geometry, the LRU
// clock, then only the valid entries with their physical slot index. Invalid
// slots carry no behavioral state (Insert chooses victims by validity and LRU
// alone, Remove zeroes the slot), so leaving them out hides nothing from the
// digest — and the tables are sized for the paper's full-scale
// machine, so walking only the occupied slots keeps snapshots cheap when the
// tables are mostly empty. Slot index order is the physical layout, so no
// sorting is needed for determinism.
func (b *Borrowed) SnapshotTo(e *checkpoint.Enc) {
	e.I64(int64(b.sets))
	e.I64(int64(b.ways))
	e.U64(b.clock)
	e.U32(uint32(b.used))
	if b.used == 0 {
		return
	}
	for _, s := range b.sortedSets() {
		set := b.table[s]
		for i := range set {
			if set[i].valid {
				e.U32(uint32(int(s)*b.ways + i))
				e.U64(set[i].key)
				e.U64(set[i].value)
				e.U64(set[i].lru)
			}
		}
	}
}
