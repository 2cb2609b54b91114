package fault

import (
	"bytes"
	"slices"
	"testing"

	"ndpbridge/internal/checkpoint"
)

func snapshotPlan() *Plan {
	return &Plan{Faults: []Spec{
		{Kind: KindDrop, Scope: ScopeL1Gather, Rank: -1, Prob: 0.5},
		{Kind: KindCorrupt, Scope: ScopeL1Scatter, Rank: 0, Prob: 0.3, Count: 2},
	}}
}

func encode(inj *Injector) []byte {
	var e checkpoint.Enc
	inj.SnapshotTo(&e)
	return e.Data()
}

// advanced builds an injector, creates its three hops in forward or reverse
// order (hops live in a map, so this is map insertion order), and runs the
// same 20 decisions on each.
func advanced(reverse bool) *Injector {
	keys := []hopKey{{ScopeL1Gather, 0}, {ScopeL1Gather, 1}, {ScopeL1Scatter, 0}}
	if reverse {
		slices.Reverse(keys)
	}
	inj := New(snapshotPlan(), 7)
	for _, k := range keys {
		inj.HopFor(k.scope, k.rank)
	}
	for i := 0; i < 20; i++ {
		for _, k := range keys {
			inj.HopFor(k.scope, k.rank).Decide(100)
		}
	}
	return inj
}

func TestInjectorSnapshotEncoding(t *testing.T) {
	ref := advanced(false)
	want := encode(ref)
	if !bytes.Equal(encode(ref), want) {
		t.Fatal("repeated encodes differ")
	}
	if !bytes.Equal(encode(advanced(true)), want) {
		t.Fatal("hop creation order leaks into the encoding")
	}
	if ref.Counters() == (Counters{}) {
		t.Fatal("no fault fired; the probe exercises nothing")
	}

	for name, mutate := range map[string]func(*Injector){
		"rng position": func(inj *Injector) { inj.HopFor(ScopeL1Gather, 1).rng.Uint64() },
		"fired count":  func(inj *Injector) { inj.HopFor(ScopeL1Scatter, 0).specs[0].fired++ },
		"decision":     func(inj *Injector) { inj.HopFor(ScopeL1Gather, 0).Decide(100) },
		"stall count":  func(inj *Injector) { inj.CountStall() },
		"kill count":   func(inj *Injector) { inj.CountKill() },
		"overflows":    func(inj *Injector) { inj.CountOverflow() },
	} {
		inj := advanced(false)
		mutate(inj)
		if bytes.Equal(encode(inj), want) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
}

// TestInjectorSnapshotNil: a nil injector (faults off) encodes exactly like
// one with no live hops, so the two are interchangeable in a state digest.
func TestInjectorSnapshotNil(t *testing.T) {
	want := encode(New(snapshotPlan(), 7))
	if got := encode(nil); !bytes.Equal(got, want) {
		t.Errorf("nil injector encodes %x, hop-less injector %x", got, want)
	}
	// A scope no spec matches creates a nil hop, which carries no state.
	inj := New(snapshotPlan(), 7)
	if inj.HopFor(ScopeL2Down, 0) != nil {
		t.Fatal("unmatched scope produced a live hop")
	}
	if !bytes.Equal(encode(inj), want) {
		t.Error("a nil hop changed the encoding")
	}
	// A live hop does show.
	inj.HopFor(ScopeL1Gather, 0)
	if bytes.Equal(encode(inj), want) {
		t.Error("a live hop left the encoding unchanged")
	}
}

// TestInjectorSnapshotHopMismatch: a replay that built a different set of
// hops, or hops with different spec lists, must fail the resume digest
// check, so both must show in the encoding.
func TestInjectorSnapshotHopMismatch(t *testing.T) {
	inj := New(snapshotPlan(), 7)
	inj.HopFor(ScopeL1Gather, 3)
	want := encode(inj)

	other := New(snapshotPlan(), 7) // same plan, hop never created
	if bytes.Equal(encode(other), want) {
		t.Error("a missing hop left the encoding unchanged")
	}
	other.HopFor(ScopeL1Gather, 4) // same plan, different rank
	if bytes.Equal(encode(other), want) {
		t.Error("a hop on another rank encodes like the original")
	}

	// Same hop and seed, one more spec matching it.
	plan := snapshotPlan()
	plan.Faults = append(plan.Faults, Spec{Kind: KindDup, Scope: ScopeL1Gather, Rank: 3, Prob: 0.1})
	more := New(plan, 7)
	more.HopFor(ScopeL1Gather, 3)
	if bytes.Equal(encode(more), want) {
		t.Error("a different spec count left the encoding unchanged")
	}
}
