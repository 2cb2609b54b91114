// Package dram models the DRAM substrate of a DRAM-bank NDP system: the
// physical address map placing one NDP unit per bank, per-bank row-buffer
// timing with an access arbiter shared by the local core and the bridge, and
// DRAM access energy accounting.
package dram

import (
	"fmt"
	"math/bits"

	"ndpbridge/internal/config"
)

// Addr is a physical DRAM address in the flat NDP address space. Following
// the coarse-grained interleaving of UPMEM/HBM-PIM (Section II-B), each NDP
// unit owns one contiguous BankBytes-sized range, so the home unit is simply
// the high-order address bits.
type Addr = uint64

// UnitID identifies one NDP unit (one bank). Units are numbered
// channel-major: id = ((channel×ranksPerChannel + rank)×chipsPerRank +
// chip)×banksPerChip + bank.
type UnitID = int

// AddrMap translates between addresses, units, and DRAM coordinates.
type AddrMap struct {
	geo       config.Geometry
	bankShift uint // log2(BankBytes)
	units     int

	// rehome, when non-nil, redirects the home of a dead unit's address
	// range to an adopting buddy (fault recovery). Allocated lazily on the
	// first Rehome so the common no-fault path pays one nil test.
	rehome []int32
}

// NewAddrMap builds the address map for a geometry.
func NewAddrMap(geo config.Geometry) *AddrMap {
	if geo.BankBytes == 0 || geo.BankBytes&(geo.BankBytes-1) != 0 {
		panic("dram: BankBytes must be a power of two")
	}
	return &AddrMap{
		geo:       geo,
		bankShift: uint(bits.TrailingZeros64(geo.BankBytes)),
		units:     geo.Units(),
	}
}

// Units returns the number of NDP units.
func (m *AddrMap) Units() int { return m.units }

// Capacity returns the total addressable bytes.
func (m *AddrMap) Capacity() uint64 { return uint64(m.units) << m.bankShift }

// Home returns the unit whose local bank stores addr. After Rehome(dead,
// buddy) the dead unit's range reports the adopting buddy instead.
func (m *AddrMap) Home(a Addr) UnitID {
	u := UnitID(a >> m.bankShift)
	if u >= m.units {
		panic(fmt.Sprintf("dram: address %#x beyond capacity %#x", a, m.Capacity()))
	}
	if m.rehome != nil {
		return int(m.rehome[u])
	}
	return u
}

// HomeRaw returns the geometric home of addr, ignoring any rehoming — the
// bank that physically stores the address.
func (m *AddrMap) HomeRaw(a Addr) UnitID {
	u := UnitID(a >> m.bankShift)
	if u >= m.units {
		panic(fmt.Sprintf("dram: address %#x beyond capacity %#x", a, m.Capacity()))
	}
	return u
}

// Rehome redirects every address homed at dead to buddy. Chains are
// flattened: if a previously dead unit pointed at dead, it now points at
// buddy too, so lookups stay O(1).
func (m *AddrMap) Rehome(dead, buddy UnitID) {
	if dead < 0 || dead >= m.units || buddy < 0 || buddy >= m.units {
		panic(fmt.Sprintf("dram: Rehome(%d, %d) out of range", dead, buddy))
	}
	if m.rehome == nil {
		m.rehome = make([]int32, m.units)
		for i := range m.rehome {
			m.rehome[i] = int32(i)
		}
	}
	for i := range m.rehome {
		if int(m.rehome[i]) == dead {
			m.rehome[i] = int32(buddy)
		}
	}
}

// IsAdopted reports whether unit u's address range has been rehomed away.
func (m *AddrMap) IsAdopted(u UnitID) bool {
	return m.rehome != nil && int(m.rehome[u]) != u
}

// Contains reports whether addr is within the address space.
func (m *AddrMap) Contains(a Addr) bool { return UnitID(a>>m.bankShift) < m.units }

// Offset returns the byte offset of addr within its bank.
func (m *AddrMap) Offset(a Addr) uint64 { return a & (m.geo.BankBytes - 1) }

// Base returns the first address of unit u's bank.
func (m *AddrMap) Base(u UnitID) Addr {
	if u < 0 || u >= m.units {
		panic(fmt.Sprintf("dram: unit %d out of range", u))
	}
	return Addr(u) << m.bankShift
}

// Coord is the DRAM location of a unit.
type Coord struct {
	Channel, Rank, Chip, Bank int
}

// Coord decomposes a unit ID into its DRAM coordinates.
func (m *AddrMap) Coord(u UnitID) Coord {
	if u < 0 || u >= m.units {
		panic(fmt.Sprintf("dram: unit %d out of range", u))
	}
	g := m.geo
	bank := u % g.BanksPerChip
	u /= g.BanksPerChip
	chip := u % g.ChipsPerRank
	u /= g.ChipsPerRank
	rank := u % g.RanksPerChannel
	u /= g.RanksPerChannel
	return Coord{Channel: u, Rank: rank, Chip: chip, Bank: bank}
}

// UnitAt composes DRAM coordinates back into a unit ID.
func (m *AddrMap) UnitAt(c Coord) UnitID {
	g := m.geo
	return ((c.Channel*g.RanksPerChannel+c.Rank)*g.ChipsPerRank+c.Chip)*g.BanksPerChip + c.Bank
}

// GlobalRank returns the system-wide rank index of a unit (its level-1
// bridge).
func (m *AddrMap) GlobalRank(u UnitID) int {
	return u / m.geo.UnitsPerRank()
}

// RankOfAddr returns the global rank holding addr's home bank.
func (m *AddrMap) RankOfAddr(a Addr) int { return m.GlobalRank(m.Home(a)) }

// ChannelOfRank returns the channel a global rank sits on.
func (m *AddrMap) ChannelOfRank(rank int) int { return rank / m.geo.RanksPerChannel }

// SameChip reports whether two units are banks of the same DRAM chip
// (RowClone's intra-chip transfer domain).
func (m *AddrMap) SameChip(a, b UnitID) bool {
	return a/m.geo.BanksPerChip == b/m.geo.BanksPerChip
}

// SameRank reports whether two units share a rank (level-1 bridge domain).
func (m *AddrMap) SameRank(a, b UnitID) bool {
	per := m.geo.UnitsPerRank()
	return a/per == b/per
}

// BlockAlign returns addr rounded down to a g-byte block boundary.
func BlockAlign(a Addr, g uint64) Addr { return a &^ (g - 1) }
