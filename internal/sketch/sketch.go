// Package sketch implements the hot-data identification machinery of
// Section VI-C: an SRAM HeavyGuardian-style sketch that tracks the hottest
// data blocks by accumulated task workload, and the in-DRAM reserved task
// queue that holds the tasks associated with each tracked block so they can
// be lent out together during load balancing.
package sketch

import (
	"math"

	"ndpbridge/internal/sim"
)

// Entry is one tracked hot block.
type Entry struct {
	Addr     uint64 // block address (G_xfer-aligned)
	Workload uint64 // accumulated task workload
}

// Sketch is a set-associative heavy-hitter tracker. Each bucket guards a
// small list of entries; on a miss with a full bucket, the weakest entry
// decays with probability b^-workload and is replaced when its counter
// drops below zero (the HeavyGuardian discipline, simplified to hot-part
// only as in the paper).
type Sketch struct {
	buckets   int
	entries   int
	decayBase float64 //ndplint:nosnap config constant
	table     [][]Entry
	rng       *sim.RNG

	inserted uint64 // total workload offered
	decays   uint64
}

// New builds a sketch with the given shape. decayBase is the b in
// P = b^-count (1.08 per HeavyGuardian).
func New(buckets, entriesPerBucket int, decayBase float64, rng *sim.RNG) *Sketch {
	if buckets <= 0 || entriesPerBucket <= 0 {
		panic("sketch: dimensions must be positive")
	}
	if decayBase <= 1 {
		panic("sketch: decay base must exceed 1")
	}
	// All bucket storage is carved from one slab: a sketch is built per
	// unit per run, and buckets separate allocations (with their separate
	// zeroing passes) show up in construction profiles. Three-index
	// slicing caps each bucket at entriesPerBucket, which the full-bucket
	// check in Observe relies on.
	t := make([][]Entry, buckets)
	slab := make([]Entry, buckets*entriesPerBucket)
	for i := range t {
		t[i] = slab[i*entriesPerBucket : i*entriesPerBucket : (i+1)*entriesPerBucket]
	}
	return &Sketch{
		buckets: buckets, entries: entriesPerBucket,
		decayBase: decayBase, table: t, rng: rng,
	}
}

func (s *Sketch) bucket(addr uint64) int {
	h := addr * 0x9e3779b97f4a7c15
	return int((h >> 33) % uint64(s.buckets))
}

// Observe records a task of workload w on block addr. Unspecified workloads
// should be offered as 1 by the caller.
func (s *Sketch) Observe(addr uint64, w uint64) {
	if w == 0 {
		w = 1
	}
	s.inserted += w
	b := s.table[s.bucket(addr)]
	for i := range b {
		if b[i].Addr == addr {
			b[i].Workload += w
			return
		}
	}
	if len(b) < cap(b) {
		s.table[s.bucket(addr)] = append(b, Entry{Addr: addr, Workload: w})
		return
	}
	// Bucket full: decay the weakest entry probabilistically.
	minIdx := 0
	for i := 1; i < len(b); i++ {
		if b[i].Workload < b[minIdx].Workload {
			minIdx = i
		}
	}
	p := math.Pow(s.decayBase, -float64(b[minIdx].Workload))
	if s.rng.Float64() < p {
		s.decays++
		if b[minIdx].Workload <= w {
			// Counter would go negative: replace.
			b[minIdx] = Entry{Addr: addr, Workload: w}
		} else {
			b[minIdx].Workload -= w
		}
	}
}

// Hottest returns the entry with the highest workload, or false if the
// sketch is empty.
func (s *Sketch) Hottest() (Entry, bool) {
	var best Entry
	found := false
	for _, b := range s.table {
		for _, e := range b {
			if !found || e.Workload > best.Workload {
				best = e
				found = true
			}
		}
	}
	return best, found
}

// Remove deletes the entry for addr (after its tasks were scheduled out).
func (s *Sketch) Remove(addr uint64) bool {
	bi := s.bucket(addr)
	b := s.table[bi]
	for i := range b {
		if b[i].Addr == addr {
			b[i] = b[len(b)-1]
			s.table[bi] = b[:len(b)-1]
			return true
		}
	}
	return false
}

// Lookup returns addr's tracked workload.
func (s *Sketch) Lookup(addr uint64) (uint64, bool) {
	b := s.table[s.bucket(addr)]
	for i := range b {
		if b[i].Addr == addr {
			return b[i].Workload, true
		}
	}
	return 0, false
}

// Len returns the number of tracked entries.
func (s *Sketch) Len() int {
	n := 0
	for _, b := range s.table {
		n += len(b)
	}
	return n
}

// TrackedWorkload sums the workload counters of all entries.
func (s *Sketch) TrackedWorkload() uint64 {
	var t uint64
	for _, b := range s.table {
		for _, e := range b {
			t += e.Workload
		}
	}
	return t
}

// InsertedWorkload returns the total workload ever offered.
func (s *Sketch) InsertedWorkload() uint64 { return s.inserted }

// Reset clears all entries and counters.
func (s *Sketch) Reset() {
	for i := range s.table {
		s.table[i] = s.table[i][:0]
	}
	s.inserted = 0
	s.decays = 0
}
