package dram

import (
	"ndpbridge/internal/config"
	"ndpbridge/internal/sim"
)

// AccessKind distinguishes what an access is for, so energy can be broken
// down into local computation vs. cross-unit communication (Figure 13).
type AccessKind int

const (
	// AccessLocal is a local data access by the NDP core.
	AccessLocal AccessKind = iota
	// AccessComm is a mailbox / scatter / gather access serving
	// cross-unit communication.
	AccessComm
	// AccessHost is an access on behalf of the host CPU.
	AccessHost
)

// Bank models one DRAM bank with an open-row policy and a busy-until access
// arbiter. Accesses may come from the local NDP core or from the upper-level
// bridge; the arbiter (Section V-A) serializes them in arrival order, which
// the simulator realizes by reserving the bank timeline.
type Bank struct {
	timing   config.Timing //ndplint:nosnap timing constants from config
	rowBytes uint64        //ndplint:nosnap geometry constant from config

	openRow   int64 // -1 = closed
	busyUntil sim.Cycles
	// nextRefresh is the next tREFI boundary; refreshes are accounted
	// lazily when accesses arrive.
	nextRefresh sim.Cycles

	// ioBytesPerCycle is the bank's internal I/O bandwidth to the local
	// core / unit controller (64-bit interface ⇒ 8 B per DRAM cycle; we
	// charge a conservative 8 B per core cycle).
	ioBytesPerCycle uint64 //ndplint:nosnap bandwidth constant from config

	stats BankStats
}

// BankStats accumulates per-bank access counts and energy.
type BankStats struct {
	Reads, Writes      uint64
	RowHits, RowMisses uint64
	Refreshes          uint64
	LocalBytes         uint64
	CommBytes          uint64
	HostBytes          uint64
	EnergyPJ           float64
	CommEnergyPJ       float64
	BusyCycles         sim.Cycles
}

// NewBank returns an idle bank with a closed row.
func NewBank(t config.Timing) *Bank {
	return &Bank{
		timing: t, rowBytes: t.BankRowBytes, openRow: -1,
		ioBytesPerCycle: 8, nextRefresh: t.TREFI,
	}
}

// refreshUpTo lazily applies every refresh due by now: each one occupies the
// bank for tRFC and closes the row. Refreshes that completed during idle
// time cost nothing.
func (b *Bank) refreshUpTo(now sim.Cycles) {
	if b.timing.TREFI == 0 {
		return
	}
	for b.nextRefresh <= now {
		start := b.nextRefresh
		if b.busyUntil > start {
			start = b.busyUntil
		}
		b.busyUntil = start + b.timing.TRFC
		b.openRow = -1
		b.stats.Refreshes++
		b.nextRefresh += b.timing.TREFI
	}
}

// Access performs a read or write of n bytes at bank offset off, issued at
// time now, and returns the completion time. Row-buffer state and the
// arbiter queue are updated. Energy is charged per 64 bits at the configured
// rate.
func (b *Bank) Access(now sim.Cycles, off uint64, n uint64, write bool, kind AccessKind, energyPJPer64b float64) sim.Cycles {
	if n == 0 {
		return now
	}
	b.refreshUpTo(now)
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	row := int64(off / b.rowBytes)
	var lat sim.Cycles
	if b.openRow == row {
		lat = b.timing.TCAS
		b.stats.RowHits++
	} else {
		if b.openRow >= 0 {
			lat += b.timing.TRP
		}
		lat += b.timing.TRCD + b.timing.TCAS
		b.openRow = row
		b.stats.RowMisses++
	}
	lat += (n + b.ioBytesPerCycle - 1) / b.ioBytesPerCycle
	end := start + lat
	b.busyUntil = end
	b.stats.BusyCycles += lat

	if write {
		b.stats.Writes++
	} else {
		b.stats.Reads++
	}
	words := (n + 7) / 8
	e := float64(words) * energyPJPer64b
	b.stats.EnergyPJ += e
	switch kind {
	case AccessLocal:
		b.stats.LocalBytes += n
	case AccessComm:
		b.stats.CommBytes += n
		b.stats.CommEnergyPJ += e
	case AccessHost:
		b.stats.HostBytes += n
	}
	return end
}

// NextFree returns the earliest time a new access could start.
func (b *Bank) NextFree(now sim.Cycles) sim.Cycles {
	if b.busyUntil > now {
		return b.busyUntil
	}
	return now
}

// Stats returns the accumulated counters.
func (b *Bank) Stats() BankStats { return b.stats }

// Reset clears state and counters for a fresh run.
func (b *Bank) Reset() {
	b.openRow = -1
	b.busyUntil = 0
	b.nextRefresh = b.timing.TREFI
	b.stats = BankStats{}
}
