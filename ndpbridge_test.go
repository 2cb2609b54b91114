package ndpbridge_test

import (
	"os"
	"strings"
	"testing"

	"ndpbridge"
)

// smallConfig shrinks the system for fast public-API tests.
func smallConfig(d ndpbridge.Design) ndpbridge.Config {
	cfg := ndpbridge.DefaultConfig().WithDesign(d)
	cfg.Geometry.Channels = 2
	cfg.Geometry.RanksPerChannel = 1
	cfg.Geometry.ChipsPerRank = 2
	cfg.Geometry.BanksPerChip = 2
	cfg.Geometry.BankBytes = 8 << 20
	return cfg
}

func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := ndpbridge.NewSystem(smallConfig(ndpbridge.DesignO))
	if err != nil {
		t.Fatal(err)
	}
	app, err := ndpbridge.NewSmallApp("tree")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan == 0 || r.TasksExecuted == 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if !strings.Contains(r.String(), "tree/O") {
		t.Errorf("result string: %s", r)
	}
}

// TestReadmeQuickstartOutput runs the README quick-start configuration
// (tree on the default 512-unit design O system) and requires the README to
// show the line it prints.
func TestReadmeQuickstartOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale system")
	}
	sys, err := ndpbridge.NewSystem(ndpbridge.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app, err := ndpbridge.NewApp("tree")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := "// " + r.String(); !strings.Contains(string(readme), want) {
		t.Errorf("README.md quick start does not show the printed result:\n%s", want)
	}
}

func TestPublicAPICustomApp(t *testing.T) {
	sys, err := ndpbridge.NewSystem(smallConfig(ndpbridge.DesignB))
	if err != nil {
		t.Fatal(err)
	}
	app := &countdown{n: 10}
	r, err := sys.Run(app)
	if err != nil {
		t.Fatal(err)
	}
	if app.ran != 10 {
		t.Fatalf("ran %d tasks, want 10", app.ran)
	}
	if r.TasksExecuted != 10 {
		t.Fatalf("TasksExecuted = %d", r.TasksExecuted)
	}
}

// countdown hops a task across units until the counter drains.
type countdown struct {
	n   int
	ran int
	fn  ndpbridge.FuncID
}

func (a *countdown) Name() string { return "countdown" }

func (a *countdown) Prepare(s *ndpbridge.System) error {
	a.fn = s.Register("countdown.step", func(ctx ndpbridge.Ctx, t ndpbridge.Task) {
		a.ran++
		ctx.Read(t.Addr, 64)
		ctx.Compute(50)
		if left := t.Args[0]; left > 1 {
			next := (ctx.Unit() + 1) % s.Units()
			ctx.Enqueue(ndpbridge.NewTask(a.fn, t.TS, s.UnitBase(next)+256, 60, left-1))
		}
	})
	return nil
}

func (a *countdown) SeedEpoch(s *ndpbridge.System, ts uint32) bool {
	if ts > 0 {
		return false
	}
	s.Seed(ndpbridge.NewTask(a.fn, 0, s.UnitBase(0)+256, 60, uint64(a.n)))
	return true
}

func TestAppNames(t *testing.T) {
	names := ndpbridge.AppNames()
	if len(names) != 8 {
		t.Fatalf("AppNames = %v", names)
	}
	for _, n := range names {
		if _, err := ndpbridge.NewApp(n); err != nil {
			t.Errorf("NewApp(%s): %v", n, err)
		}
	}
	if _, err := ndpbridge.NewApp("bogus"); err == nil {
		t.Error("bogus app should fail")
	}
}

func TestParseDesign(t *testing.T) {
	d, err := ndpbridge.ParseDesign("W")
	if err != nil || d != ndpbridge.DesignW {
		t.Errorf("ParseDesign(W) = %v, %v", d, err)
	}
	if _, err := ndpbridge.ParseDesign("?"); err == nil {
		t.Error("expected error")
	}
}
