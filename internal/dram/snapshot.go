package dram

import (
	"math"

	"ndpbridge/internal/checkpoint"
)

// SnapshotTo encodes the bank's mutable timing state and counters. The
// geometry (timing parameters, row size) comes from the config and is not
// encoded; a checkpoint records the config separately.
func (b *Bank) SnapshotTo(e *checkpoint.Enc) {
	e.I64(b.openRow)
	e.U64(uint64(b.busyUntil))
	e.U64(uint64(b.nextRefresh))
	e.U64(b.stats.Reads)
	e.U64(b.stats.Writes)
	e.U64(b.stats.RowHits)
	e.U64(b.stats.RowMisses)
	e.U64(b.stats.Refreshes)
	e.U64(b.stats.LocalBytes)
	e.U64(b.stats.CommBytes)
	e.U64(b.stats.HostBytes)
	e.U64(math.Float64bits(b.stats.EnergyPJ))
	e.U64(math.Float64bits(b.stats.CommEnergyPJ))
	e.U64(uint64(b.stats.BusyCycles))
}
