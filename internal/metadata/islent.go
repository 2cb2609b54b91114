// Package metadata implements the migration-tracking structures of
// Section VI-B: the per-unit isLent bitmap marking data blocks currently lent
// to another unit, and the set-associative dataBorrowed tables mapping
// borrowed blocks to their local remapped address (in units) or to the
// borrowing unit (in bridges). The unit- and bridge-level tables are kept
// inclusive by the runtime.
package metadata

import (
	"fmt"
	"math/bits"
)

// IsLent is a bitmap with one bit per G_xfer-sized block of the local bank,
// marking blocks currently lent to another unit. The word storage appears on
// the first lend: most units in a run never lend, and the per-unit bitmaps
// added up across constructed systems.
type IsLent struct {
	bits       []uint64 // nil until the first lend
	blockShift uint
	blocks     uint64
	lentCount  int
}

// words returns the bitmap length in 64-bit words, allocated or not.
func (l *IsLent) words() int { return int((l.blocks + 63) / 64) }

// NewIsLent covers bankBytes of local DRAM at blockBytes granularity.
// blockBytes must be a power of two.
func NewIsLent(bankBytes, blockBytes uint64) *IsLent {
	if blockBytes == 0 || blockBytes&(blockBytes-1) != 0 {
		panic("metadata: block size must be a power of two")
	}
	blocks := (bankBytes + blockBytes - 1) / blockBytes
	return &IsLent{
		blockShift: uint(bits.TrailingZeros64(blockBytes)),
		blocks:     blocks,
	}
}

func (l *IsLent) index(offset uint64) (word int, mask uint64) {
	b := offset >> l.blockShift
	if b >= l.blocks {
		panic(fmt.Sprintf("metadata: offset %#x beyond bank", offset))
	}
	return int(b / 64), 1 << (b % 64)
}

// Lent reports whether the block containing bank offset is lent out.
//
//ndplint:hotpath
func (l *IsLent) Lent(offset uint64) bool {
	w, m := l.index(offset)
	if l.bits == nil {
		return false
	}
	return l.bits[w]&m != 0
}

// SetLent marks the block containing offset as lent (true) or home (false).
// It reports whether the bit changed.
func (l *IsLent) SetLent(offset uint64, lent bool) bool {
	w, m := l.index(offset)
	if l.bits == nil {
		if !lent {
			return false
		}
		l.bits = make([]uint64, l.words())
	}
	was := l.bits[w]&m != 0
	if was == lent {
		return false
	}
	if lent {
		l.bits[w] |= m
		l.lentCount++
	} else {
		l.bits[w] &^= m
		l.lentCount--
	}
	return true
}

// Count returns the number of blocks currently lent out.
func (l *IsLent) Count() int { return l.lentCount }

// Blocks returns the number of tracked blocks.
func (l *IsLent) Blocks() uint64 { return l.blocks }
