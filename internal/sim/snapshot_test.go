package sim

import "testing"

// TestRNGStateRoundTrip: State is the generator's whole position, so a
// generator seeded with it continues the exact stream. Snapshots encode
// State, which is what puts every later draw into a state digest.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100; i++ {
		r.Uint64()
	}
	r2 := NewRNG(r.State())
	for i := 0; i < 3; i++ {
		if got, want := r2.Uint64(), r.Uint64(); got != want {
			t.Fatalf("draw %d from the copied position: got %#x, want %#x", i, got, want)
		}
	}
	before := r.State()
	r.Uint64()
	if r.State() == before {
		t.Fatal("a draw left State unchanged")
	}
}

func TestEngineSnapState(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {})
	e.At(20, func() {})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	st := e.SnapState()
	if st.Now != 20 || st.Processed != 2 || st.Seq != 2 {
		t.Errorf("state = %+v", st)
	}
}

func TestEngineAuditHook(t *testing.T) {
	e := NewEngine()
	var fired []Cycles
	e.SetAudit(100, func(now Cycles) { fired = append(fired, now) })

	// Events at 50, 150, 160, 400: audit should fire at 150 (first event
	// at/past deadline 100), then at 400 (first at/past 250), never twice
	// for events inside one window.
	for _, c := range []Cycles{50, 150, 160, 400} {
		e.At(c, func() {})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 150 || fired[1] != 400 {
		t.Errorf("audit fired at %v, want [150 400]", fired)
	}

	// Disabled hook never fires.
	e2 := NewEngine()
	n := 0
	e2.SetAudit(0, func(Cycles) { n++ })
	e2.At(1000, func() {})
	if err := e2.Run(0); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("disabled audit hook fired %d times", n)
	}
}

func TestEngineAuditCoexistsWithProgress(t *testing.T) {
	e := NewEngine()
	audits, progresses := 0, 0
	e.SetAudit(1, func(Cycles) { audits++ })
	e.SetProgress(1, func(Cycles, uint64) { progresses++ })
	for i := Cycles(1); i <= 5; i++ {
		e.At(i, func() {})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if audits != 5 || progresses != 5 {
		t.Errorf("audits=%d progresses=%d, want 5 and 5", audits, progresses)
	}
}
