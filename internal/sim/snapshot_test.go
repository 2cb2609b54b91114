package sim

import (
	"fmt"
	"slices"
	"testing"
)

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

func TestEngineEvery(t *testing.T) {
	type sub struct {
		name  string
		every Cycles
	}
	cases := []struct {
		name   string
		hooks  []sub
		nilFn  bool
		events []Cycles
		until  Cycles // 0: Run until the queue drains; else RunUntil(until)
		want   []string
	}{{
		// Both grids fire, each at its own points; at a shared point the
		// hooks run in installation order, and a point that coincides with
		// an event runs before it.
		name:   "two periods",
		hooks:  []sub{{"a", 100}, {"b", 250}},
		events: []Cycles{50, 150, 400, 520},
		want: []string{"ev@50", "a@100", "ev@150", "a@200", "b@250", "a@300",
			"a@400", "ev@400", "a@500", "b@500", "ev@520"},
	}, {
		// A jump across several grid points calls the hook once per point,
		// in order, all before the event at the jump target.
		name:   "jump",
		hooks:  []sub{{"a", 10}},
		events: []Cycles{5, 47},
		want:   []string{"ev@5", "a@10", "a@20", "a@30", "a@40", "ev@47"},
	}, {
		name:   "RunUntil advance",
		hooks:  []sub{{"a", 100}},
		events: []Cycles{50},
		until:  250,
		want:   []string{"ev@50", "a@100", "a@200"},
	}, {
		name:   "every zero",
		hooks:  []sub{{"a", 0}},
		events: []Cycles{5, 1000},
		want:   []string{"ev@5", "ev@1000"},
	}, {
		name:   "nil fn",
		hooks:  []sub{{"a", 10}},
		nilFn:  true,
		events: []Cycles{5, 1000},
		want:   []string{"ev@5", "ev@1000"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(withHooks bool) ([]string, State) {
				e := NewEngine()
				var log []string
				if withHooks {
					for _, h := range tc.hooks {
						fn := func(at Cycles) {
							if e.Now() != at {
								t.Errorf("hook %s at %d saw Now() = %d", h.name, at, e.Now())
							}
							log = append(log, fmt.Sprintf("%s@%d", h.name, at))
						}
						if tc.nilFn {
							fn = nil
						}
						e.Every(h.every, fn)
					}
				}
				for _, c := range tc.events {
					e.At(c, func() { log = append(log, fmt.Sprintf("ev@%d", c)) })
				}
				if tc.until > 0 {
					e.RunUntil(tc.until)
				} else if err := e.Run(0); err != nil {
					t.Fatal(err)
				}
				return log, e.SnapState()
			}
			got, st := run(true)
			if !slices.Equal(got, tc.want) {
				t.Errorf("order = %v\nwant    %v", got, tc.want)
			}
			// Hooks only observe: the clock, the sequence counter and the
			// processed count match a run without them.
			if _, bare := run(false); st != bare {
				t.Errorf("hooks changed the engine state: %+v, bare run %+v", st, bare)
			}
		})
	}
}

func TestEngineEveryCoexistsWithProgress(t *testing.T) {
	e := NewEngine()
	hooks, progresses := 0, 0
	e.Every(1, func(Cycles) { hooks++ })
	e.SetProgress(1, func(Cycles, uint64) { progresses++ })
	for i := Cycles(1); i <= 5; i++ {
		e.At(i, func() {})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if hooks != 5 || progresses != 5 {
		t.Errorf("hooks=%d progresses=%d, want 5 and 5", hooks, progresses)
	}
}
