package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"ndpbridge/internal/sim"
)

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	h := reg.Histogram("h")
	g := reg.Gauge("g", func() uint64 { return 7 })

	c.Add(3)
	c.Inc()
	h.Observe(42)
	if c.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 || g.Value() != 0 {
		t.Error("nil instruments must observe nothing and read zero")
	}
	if h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("nil histogram accessors must return zero")
	}
	if reg.StartSampler(sim.NewEngine(), 10) != nil {
		t.Error("nil registry must return a nil sampler")
	}
	if reg.FindHistogram("h") != nil || reg.FindCounter("c") != nil || reg.SeriesByName("s") != nil {
		t.Error("nil registry lookups must return nil")
	}
	if reg.CounterNames() != nil || reg.HistogramNames() != nil || reg.SeriesNames() != nil {
		t.Error("nil registry name listings must be nil")
	}
	reg.Merge(NewRegistry(), "")
	var ser *Series
	if ser.Len() != 0 {
		t.Error("nil series Len")
	}
}

func TestCounter(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("tasks")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("counter = %d, want 10", c.Value())
	}
	if reg.Counter("tasks") != c {
		t.Error("same name must return the same counter")
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := NewRegistry().Histogram("h")
	for _, v := range []uint64{5, 1, 9, 0, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 115 || h.Min() != 0 || h.Max() != 100 {
		t.Errorf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if m := h.Mean(); m != 23 {
		t.Errorf("mean = %v, want 23", m)
	}
}

// TestHistogramQuantiles checks the log2-bucket quantile contract: the
// returned value is an upper bound of the covering bucket, within 2× of the
// true quantile, and exact at the extremes.
func TestHistogramQuantiles(t *testing.T) {
	h := NewRegistry().Histogram("h")
	// 100 observations: 1..100.
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	// True p50 = 50, covering bucket holds [32,63] → estimate 63.
	if got := h.Quantile(0.5); got != 63 {
		t.Errorf("p50 = %d, want 63", got)
	}
	// True p90 = 90 → bucket [64,127], clamped to max 100.
	if got := h.Quantile(0.9); got != 100 {
		t.Errorf("p90 = %d, want 100 (bucket clamped to max)", got)
	}
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("p0 = %d, want min 1", got)
	}
	// Quantiles never fall below min even for tiny q.
	if got := h.Quantile(0.001); got < 1 {
		t.Errorf("q0.001 = %d below min", got)
	}
}

func TestHistogramQuantileSingleValue(t *testing.T) {
	h := NewRegistry().Histogram("h")
	h.Observe(7)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 7 {
			t.Errorf("q%v = %d, want 7", q, got)
		}
	}
	// Zero-valued observations land in bucket 0.
	z := NewRegistry().Histogram("z")
	z.Observe(0)
	z.Observe(0)
	if got := z.Quantile(0.99); got != 0 {
		t.Errorf("all-zero q99 = %d", got)
	}
}

func TestHistogramLargeValues(t *testing.T) {
	h := NewRegistry().Histogram("h")
	h.Observe(1 << 63)
	h.Observe(^uint64(0))
	if h.Max() != ^uint64(0) || h.Count() != 2 {
		t.Errorf("max=%d count=%d", h.Max(), h.Count())
	}
	if got := h.Quantile(0.99); got != ^uint64(0) {
		t.Errorf("q99 = %d", got)
	}
}

func TestSampler(t *testing.T) {
	reg := NewRegistry()
	eng := sim.NewEngine()
	var depth uint64
	reg.Gauge("queue_depth", func() uint64 { return depth })
	if reg.StartSampler(eng, 100) == nil {
		t.Fatal("sampler not started")
	}
	// Mutate the gauge source over time. The change at 200 lands on a grid
	// point, which samples the state before that cycle's events.
	eng.At(50, func() { depth = 5 })
	eng.At(150, func() { depth = 9 })
	eng.At(200, func() { depth = 4 })
	eng.RunUntil(350)
	ser := reg.SeriesByName("queue_depth")
	if ser.Len() != 3 {
		t.Fatalf("samples = %d, want 3 (got %+v)", ser.Len(), ser)
	}
	wantCycles := []uint64{100, 200, 300}
	wantValues := []uint64{5, 9, 4}
	for i := range wantCycles {
		if ser.Cycles[i] != wantCycles[i] || ser.Values[i] != wantValues[i] {
			t.Errorf("sample %d = (%d,%d), want (%d,%d)",
				i, ser.Cycles[i], ser.Values[i], wantCycles[i], wantValues[i])
		}
	}
	// Sampling schedules no events: the engine ran exactly the model's
	// three, and a drained engine stops with no sample chain keeping it
	// alive.
	if eng.Processed() != 3 || eng.Pending() != 0 {
		t.Fatalf("processed %d, pending %d; want 3 and 0", eng.Processed(), eng.Pending())
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if ser.Len() != 3 {
		t.Errorf("samples after the queue drained = %d, want 3", ser.Len())
	}
}

func TestSamplerNoGauges(t *testing.T) {
	if NewRegistry().StartSampler(sim.NewEngine(), 10) != nil {
		t.Error("sampler with no gauges must be nil")
	}
	reg := NewRegistry()
	reg.Gauge("g", func() uint64 { return 1 })
	if reg.StartSampler(sim.NewEngine(), 0) != nil {
		t.Error("zero-interval sampler must be nil")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("runs").Add(2)
	b.Counter("runs").Add(3)
	b.Counter("only_b").Inc()
	a.Histogram("lat").Observe(10)
	b.Histogram("lat").Observe(1000)
	b.series["mb"] = &Series{Interval: 10, Cycles: []uint64{10}, Values: []uint64{4}}

	a.Merge(b, "tree/O/")
	if got := a.Counter("runs").Value(); got != 5 {
		t.Errorf("merged counter = %d, want 5", got)
	}
	if got := a.Counter("only_b").Value(); got != 1 {
		t.Errorf("new counter = %d, want 1", got)
	}
	h := a.Histogram("lat")
	if h.Count() != 2 || h.Min() != 10 || h.Max() != 1000 {
		t.Errorf("merged hist count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if a.SeriesByName("tree/O/mb").Len() != 1 {
		t.Error("series not merged under prefix")
	}
	// A second merge of the same series name gets a collision suffix.
	a.Merge(b, "tree/O/")
	if a.SeriesByName("tree/O/mb#2").Len() != 1 {
		t.Errorf("collision suffix missing; series: %v", a.SeriesNames())
	}
}

func TestMergeEmptyHistogramKeepsMin(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("h").Observe(5)
	b.Histogram("h") // registered but empty
	a.Merge(b, "")
	if h := a.Histogram("h"); h.Count() != 1 || h.Min() != 5 {
		t.Errorf("empty merge corrupted histogram: count=%d min=%d", h.Count(), h.Min())
	}
}

func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("bounces").Add(4)
	h := reg.Histogram("task_latency_cycles")
	h.Observe(3)
	h.Observe(300)
	reg.series["mailbox_used_total"] = &Series{Interval: 100, Cycles: []uint64{100, 200}, Values: []uint64{64, 0}}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f FileJSON
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if f.Counters["bounces"] != 4 {
		t.Errorf("counters = %v", f.Counters)
	}
	hj := f.Histograms["task_latency_cycles"]
	if hj.Count != 2 || hj.Min != 3 || hj.Max != 300 || len(hj.Buckets) != 2 {
		t.Errorf("histogram json = %+v", hj)
	}
	if hj.P99 != 300 {
		t.Errorf("p99 = %d, want 300", hj.P99)
	}
	s := f.Series["mailbox_used_total"]
	if s.Interval != 100 || len(s.Cycles) != 2 || s.Values[0] != 64 {
		t.Errorf("series json = %+v", s)
	}
	// A nil registry still exports a valid empty document.
	var nilReg *Registry
	buf.Reset()
	if err := nilReg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("nil registry JSON invalid: %v", err)
	}
}

func TestItoa(t *testing.T) {
	for _, tc := range []struct {
		n int
		s string
	}{{0, "0"}, {2, "2"}, {10, "10"}, {987, "987"}} {
		if got := itoa(tc.n); got != tc.s {
			t.Errorf("itoa(%d) = %q", tc.n, got)
		}
	}
}
