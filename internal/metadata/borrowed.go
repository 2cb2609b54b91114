package metadata

import (
	"fmt"
	"slices"
)

// Borrowed is a set-associative, LRU-replaced table keyed by a block's
// original (home) address. In an NDP unit the value is the block's remapped
// address in the borrowed data region; in a bridge it is the borrowing
// receiver's unit ID. When an entry is evicted, the owner must return the
// block home — the Evicted callback result surfaces that.
//
// All storage is allocated lazily: the tables are sized for the paper's
// full-scale machine (64k entries per bridge) but mostly empty in small runs,
// and per-system eager allocation (even of just per-set headers) dominated
// end-to-end profiles. Only touched sets exist, held in a map from set index
// to entry storage that itself grows one entry at a time up to ways. An
// absent slot is indistinguishable from an invalid one: lookups never match
// it, and Insert prefers the first invalid slot as victim — which for a
// partially materialized set is exactly the append position — so victim
// choice, slot numbering, and eviction order all match an eagerly-allocated
// layout. Iteration (ForEach, snapshots) sorts the touched set indices, so
// map ordering never leaks into simulation behavior.
type Borrowed struct {
	sets  int
	ways  int
	table map[uint32][]bentry // touched sets only, keyed by set index
	clock uint64
	used  int
	// keyScratch backs the sorted set-index traversal of ForEach and
	// SnapshotTo so repeated snapshots (the auditor's) do not allocate.
	keyScratch []uint32 //ndplint:nosnap scratch for deterministic iteration
}

type bentry struct {
	valid bool
	key   uint64
	value uint64
	lru   uint64
}

// Eviction describes an entry displaced by Insert.
type Eviction struct {
	Key   uint64
	Value uint64
}

// NewBorrowed builds a table with the given total entries and associativity.
// entries must be a multiple of ways and the set count must be a power of
// two.
func NewBorrowed(entries, ways int) *Borrowed {
	if ways <= 0 || entries <= 0 || entries%ways != 0 {
		panic("metadata: entries must be a positive multiple of ways")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("metadata: set count %d must be a power of two", sets))
	}
	return &Borrowed{sets: sets, ways: ways}
}

func (b *Borrowed) setIndex(key uint64) uint32 {
	// Keys are block addresses; drop the low bits that are constant
	// within a block by hashing, so consecutive blocks spread over sets.
	h := key * 0x9e3779b97f4a7c15
	return uint32(h>>32) & uint32(b.sets-1)
}

// Lookup returns the value for key and touches its LRU position.
//
//ndplint:hotpath
func (b *Borrowed) Lookup(key uint64) (uint64, bool) {
	if b.used == 0 {
		return 0, false
	}
	set := b.table[b.setIndex(key)]
	for i := range set {
		if set[i].valid && set[i].key == key {
			b.clock++
			set[i].lru = b.clock
			return set[i].value, true
		}
	}
	return 0, false
}

// Contains reports presence without touching LRU state.
//
//ndplint:hotpath
func (b *Borrowed) Contains(key uint64) bool {
	if b.used == 0 {
		return false
	}
	set := b.table[b.setIndex(key)]
	for i := range set {
		if set[i].valid && set[i].key == key {
			return true
		}
	}
	return false
}

// Insert adds or updates key→value. If the set is full, the LRU entry is
// evicted and returned.
//
//ndplint:hotpath
func (b *Borrowed) Insert(key, value uint64) (ev Eviction, evicted bool) {
	si := b.setIndex(key)
	if b.table == nil {
		b.table = make(map[uint32][]bentry, 8) //ndplint:alloc once, on first insert
	}
	set := b.table[si]
	b.clock++
	var victim *bentry
	for i := range set {
		e := &set[i]
		if e.valid && e.key == key {
			e.value = value
			e.lru = b.clock
			return Eviction{}, false
		}
		if !e.valid {
			if victim == nil || victim.valid {
				victim = e
			}
		} else if victim == nil || (victim.valid && e.lru < victim.lru) {
			victim = e
		}
	}
	if (victim == nil || victim.valid) && len(set) < b.ways {
		// No stored invalid slot: the first unmaterialized one is the
		// victim an eager layout would have chosen.
		set = append(set, bentry{}) //ndplint:alloc amortized set growth
		b.table[si] = set
		victim = &set[len(set)-1]
	}
	if victim.valid {
		ev = Eviction{Key: victim.key, Value: victim.value}
		evicted = true
	} else {
		b.used++
	}
	*victim = bentry{valid: true, key: key, value: value, lru: b.clock}
	return ev, evicted
}

// Remove deletes key, reporting whether it was present.
//
//ndplint:hotpath
func (b *Borrowed) Remove(key uint64) bool {
	if b.used == 0 {
		return false
	}
	set := b.table[b.setIndex(key)]
	for i := range set {
		if set[i].valid && set[i].key == key {
			set[i] = bentry{}
			b.used--
			return true
		}
	}
	return false
}

// Len returns the number of valid entries.
func (b *Borrowed) Len() int { return b.used }

// Capacity returns the total entry count.
func (b *Borrowed) Capacity() int { return b.sets * b.ways }

// sortedSets returns the touched set indices in ascending order, reusing the
// scratch buffer. Iteration must never follow raw map order: ForEach feeds
// eviction victim choice and SnapshotTo feeds digests, both of which have to
// be identical across runs.
func (b *Borrowed) sortedSets() []uint32 {
	ks := b.keyScratch[:0]
	for k := range b.table {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	b.keyScratch = ks
	return ks
}

// ForEach visits every valid entry in ascending (set, way) order.
func (b *Borrowed) ForEach(fn func(key, value uint64)) {
	if b.used == 0 {
		return
	}
	for _, k := range b.sortedSets() {
		set := b.table[k]
		for i := range set {
			if set[i].valid {
				fn(set[i].key, set[i].value)
			}
		}
	}
}
