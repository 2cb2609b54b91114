package fault

import (
	"sort"

	"ndpbridge/internal/checkpoint"
)

// This file is the fault engine's serialization boundary: the injector's
// position — per-hop RNG stream states, per-spec firing budgets, and the
// executed-fault counters. The unit/overflow event schedule is a pure
// function of the plan and needs no state; hops are encoded in sorted
// (scope, rank) order so the byte stream is independent of map iteration.

// SnapshotTo encodes the injector's mutable position. Safe on a nil
// injector (encodes an empty hop list), matching the nil-is-off convention.
func (inj *Injector) SnapshotTo(e *checkpoint.Enc) {
	if inj == nil {
		e.U32(0)
		var z Counters
		encodeCounters(e, z)
		return
	}
	keys := make([]hopKey, 0, len(inj.hops))
	for k, h := range inj.hops {
		if h != nil { // nil hops carry no state
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].scope != keys[j].scope {
			return keys[i].scope < keys[j].scope
		}
		return keys[i].rank < keys[j].rank
	})
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		h := inj.hops[k]
		e.Str(string(k.scope))
		e.I64(int64(k.rank))
		e.U64(h.rng.State())
		e.U32(uint32(len(h.specs)))
		for _, a := range h.specs {
			e.U64(a.fired)
		}
	}
	encodeCounters(e, inj.st)
}

func encodeCounters(e *checkpoint.Enc, c Counters) {
	e.U64(c.Drops)
	e.U64(c.Corrupts)
	e.U64(c.Duplicates)
	e.U64(c.Delays)
	e.U64(c.Stalls)
	e.U64(c.Kills)
	e.U64(c.Overflows)
}
