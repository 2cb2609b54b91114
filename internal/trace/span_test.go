package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"ndpbridge/internal/metrics"
)

func TestNilRecorderSpansSafe(t *testing.T) {
	var r *Recorder
	if r.FlowsEnabled() {
		t.Error("nil recorder reports flows enabled")
	}
	r.EnableFlows(10) // must not panic
	if id := r.Span(1, 0, SpanExec, CatBankBusy, 0, 0, 10); id != 0 {
		t.Errorf("nil recorder Span = %d, want 0", id)
	}
	if id := r.TaskStart(0, 1, 0, 0, 0); id != 0 {
		t.Errorf("nil recorder TaskStart = %d, want 0", id)
	}
	r.TaskEnd(1, 0, 0, 5, "x")
	r.Delivered(0, 0, 5)
	r.Epoch(0, 0)
	r.BindMetrics(metrics.NewRegistry(), true)
	if r.TaskFlow(3, 7) != 7 {
		t.Error("nil recorder TaskFlow must key a root task by its ID")
	}
	if r.NewFlow() != 0 || r.SpanCount() != 0 || r.DroppedSpans() != 0 {
		t.Error("nil recorder span state must be inert")
	}
	if r.CritPath(100) != nil {
		t.Error("nil recorder CritPath must be nil")
	}
}

func TestFlowsDisabledNoops(t *testing.T) {
	r := New(10)
	if r.FlowsEnabled() {
		t.Fatal("flows on without EnableFlows")
	}
	if id := r.Span(1, 0, SpanExec, CatBankBusy, 0, 0, 10); id != 0 {
		t.Errorf("disabled Span = %d, want 0", id)
	}
	if id := r.TaskStart(0, 1, 0, 0, 0); id != 0 {
		t.Errorf("disabled TaskStart = %d, want 0", id)
	}
	r.Epoch(0, 0)
	if r.SpanCount() != 0 || len(r.Epochs()) != 0 {
		t.Error("disabled recorder retained span state")
	}
	if r.CritPath(100) != nil {
		t.Error("disabled recorder CritPath must be nil")
	}
}

func TestSpanCapAndDrops(t *testing.T) {
	r := New(10)
	r.EnableFlows(3)
	var last uint32
	for i := 0; i < 5; i++ {
		last = r.Span(1, last, SpanExec, CatBankBusy, 0, uint64(i), uint64(i+1))
	}
	if r.SpanCount() != 3 {
		t.Errorf("SpanCount = %d, want 3 (capped)", r.SpanCount())
	}
	if r.DroppedSpans() != 2 {
		t.Errorf("DroppedSpans = %d, want 2", r.DroppedSpans())
	}
	if last != 0 {
		t.Errorf("dropped span returned id %d, want 0 (a valid root parent)", last)
	}
	// TaskStart's queue and execution spans drop past the cap too.
	if id := r.TaskStart(0, 1, 9, 0, 9); id != 0 {
		t.Errorf("TaskStart past cap = %d, want 0", id)
	}
	if r.DroppedSpans() != 4 {
		t.Errorf("DroppedSpans = %d, want 4", r.DroppedSpans())
	}
	// The drop counts surface in the FlowTrace metadata record.
	var buf bytes.Buffer
	if err := r.FlowTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"spans":3,"spans_dropped":4`) {
		t.Errorf("metadata missing span drop counts:\n%s", buf.String())
	}
}

func TestSpanClampsReversedInterval(t *testing.T) {
	r := New(10)
	r.EnableFlows(10)
	r.Span(1, 0, SpanExec, CatBankBusy, 0, 50, 20)
	sp := r.Spans()[0]
	if sp.Start != 20 || sp.End != 20 {
		t.Errorf("reversed span = [%d,%d], want clamped to [20,20]", sp.Start, sp.End)
	}
	id := r.TaskStart(0, 1, 30, 0, 30)
	r.TaskEnd(id, 0, 30, 10, "") // end before start: clamp to zero length
	sp = r.Spans()[id-1]
	if sp.Start != 30 || sp.End != 30 {
		t.Errorf("reversed close = [%d,%d], want [30,30]", sp.Start, sp.End)
	}
	r.TaskEnd(0, 0, 0, 99, "")   // id 0 = dropped span: no-op
	r.TaskEnd(999, 0, 0, 99, "") // out of range: no-op
}

func TestNewFlowDisjointFromTaskIDs(t *testing.T) {
	r := New(10)
	r.EnableFlows(10)
	a, b := r.NewFlow(), r.NewFlow()
	if a == b {
		t.Error("NewFlow returned the same ID twice")
	}
	if a&(1<<63) == 0 || b&(1<<63) == 0 {
		t.Error("NewFlow IDs must carry the high bit to stay disjoint from task IDs")
	}
}

func TestFlowTraceIsValidJSON(t *testing.T) {
	r := New(10)
	r.EnableFlows(10)
	r.Record(KindTask, 0, 0, 10, `label "quoted" \ and
control`)
	exec := r.TaskStart(0, 1, 0, 0, 5)
	r.TaskEnd(exec, 0, 5, 20, "")
	r.Span(1, exec, SpanMailbox, CatGatherBatch, 1, 20, 30)
	var buf bytes.Buffer
	if err := r.FlowTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("FlowTrace is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, starts, finishes int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			if args, ok := ev["args"].(map[string]any); ok {
				if _, isSpan := args["span"]; isSpan {
					spans++
				}
			}
		case "s":
			starts++
		case "f":
			finishes++
		}
	}
	if spans != 3 {
		t.Errorf("%d span events, want 3", spans)
	}
	// Two spans have parents, so two arrows, each an s/f pair.
	if starts != 2 || finishes != 2 {
		t.Errorf("%d/%d arrow events, want 2/2", starts, finishes)
	}
}

func TestFlowTraceEmptyAndNil(t *testing.T) {
	for name, r := range map[string]*Recorder{"nil": nil, "empty": New(10)} {
		var buf bytes.Buffer
		if err := r.FlowTrace(&buf); err != nil {
			t.Fatalf("%s recorder: %v", name, err)
		}
		var events []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("%s recorder trace invalid: %v", name, err)
		}
		if len(events) != 1 {
			t.Errorf("%s recorder: %d events, want just the metadata record", name, len(events))
		}
	}
}

func TestBindMetricsFeedsCategoryHistograms(t *testing.T) {
	r := New(10)
	r.EnableFlows(10)
	reg := metrics.NewRegistry()
	r.BindMetrics(reg, true)
	id := r.TaskStart(0, 1, 0, 0, 40)
	r.TaskEnd(id, 0, 40, 100, "")
	if n := reg.FindHistogram("wait_task_queue_cycles").Count(); n != 1 {
		t.Errorf("wait_task_queue_cycles count = %d, want 1", n)
	}
	h := reg.FindHistogram("wait_bank_busy_cycles")
	if h.Count() != 1 {
		t.Errorf("wait_bank_busy_cycles count = %d, want 1", h.Count())
	}
	if m := h.Mean(); m != 60 {
		t.Errorf("wait_bank_busy_cycles mean = %v, want 60", m)
	}
}

func TestCritPathSimpleChain(t *testing.T) {
	r := New(10)
	r.EnableFlows(10)
	r.Epoch(0, 0)
	// queued [0,10] → exec [10,30] → mailbox [30,70] → exec [70,100]
	q := r.Span(1, 0, SpanQueued, CatTaskQueue, 0, 0, 10)
	e1 := r.Span(1, q, SpanExec, CatBankBusy, 0, 10, 30)
	m := r.Span(1, e1, SpanMailbox, CatGatherBatch, 0, 30, 70)
	r.Span(1, m, SpanExec, CatBankBusy, 1, 70, 100)
	// A decoy on another flow that finishes earlier.
	r.Span(2, 0, SpanExec, CatBankBusy, 2, 0, 60)
	rep := r.CritPath(100)
	if len(rep.Epochs) != 1 {
		t.Fatalf("%d epochs, want 1", len(rep.Epochs))
	}
	ep := rep.Epochs[0]
	if ep.PathSpans != 4 {
		t.Errorf("PathSpans = %d, want 4", ep.PathSpans)
	}
	want := CatCycles{BankBusy: 50, TaskQueue: 10, GatherBatch: 40}
	if ep.Attr != want {
		t.Errorf("Attr = %+v, want %+v", ep.Attr, want)
	}
	if cat, frac := rep.Total.Dominant(); cat != CatBankBusy || frac != 0.5 {
		t.Errorf("Dominant = %v %.2f, want bank-busy 0.50", cat, frac)
	}
}

func TestCritPathBillsGapsToSlack(t *testing.T) {
	r := New(10)
	r.EnableFlows(10)
	r.Epoch(0, 0)
	// Parent ends at 20, child starts at 50: a 30-cycle causal gap. The
	// epoch also has a 10-cycle untracked tail (90→100).
	p := r.Span(1, 0, SpanExec, CatBankBusy, 0, 0, 20)
	r.Span(1, p, SpanDeliver, CatHostRT, 1, 50, 90)
	rep := r.CritPath(100)
	want := CatCycles{BankBusy: 20, HostRT: 40, Slack: 40}
	if rep.Epochs[0].Attr != want {
		t.Errorf("Attr = %+v, want %+v", rep.Epochs[0].Attr, want)
	}
}

func TestCritPathZeroLengthBarrierSpan(t *testing.T) {
	r := New(10)
	r.EnableFlows(10)
	r.Epoch(0, 0)
	r.Epoch(1, 50)
	// Real epoch-0 work ending exactly at the barrier.
	r.Span(1, 0, SpanExec, CatBankBusy, 0, 10, 50)
	// A zero-length queued span sitting on the barrier (a task seeded and
	// popped at the epoch boundary) — it must bill to epoch 1, not steal
	// epoch 0's last-to-finish slot with an empty parent chain.
	r.Span(2, 0, SpanQueued, CatTaskQueue, 0, 50, 50)
	r.Span(2, 2, SpanExec, CatBankBusy, 0, 50, 100)
	rep := r.CritPath(100)
	if got := rep.Epochs[0].Attr.BankBusy; got != 40 {
		t.Errorf("epoch 0 bank-busy = %d, want 40", got)
	}
	if got := rep.Epochs[1].Attr.BankBusy; got != 50 {
		t.Errorf("epoch 1 bank-busy = %d, want 50", got)
	}
}

// TestCritPathAttributionSumsToMakespan is the core invariant, property-style:
// random span forests and epoch marks, every epoch's attribution must sum
// exactly to the epoch's length and the total to the makespan.
func TestCritPathAttributionSumsToMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 200; trial++ {
		r := New(10)
		r.EnableFlows(0)
		makespan := uint64(rng.Intn(5000) + 100)
		// Epoch marks: 0..4 extra barriers at random cycles (mark 0 always).
		r.Epoch(0, 0)
		nEpochs := rng.Intn(5)
		for i := 0; i < nEpochs; i++ {
			r.Epoch(uint32(i+1), uint64(rng.Intn(int(makespan)+200)))
		}
		// Random forest: each span picks any earlier span (or none) as its
		// parent and a random interval, sometimes zero-length, sometimes
		// past the makespan.
		nSpans := rng.Intn(120)
		for i := 0; i < nSpans; i++ {
			var parent uint32
			if i > 0 && rng.Intn(3) > 0 {
				parent = uint32(rng.Intn(i) + 1)
			}
			start := uint64(rng.Intn(int(makespan) + 100))
			end := start + uint64(rng.Intn(200))
			if rng.Intn(5) == 0 {
				end = start
			}
			r.Span(uint64(rng.Intn(8)+1), parent, SpanKind(rng.Intn(int(nSpanKinds))),
				Category(rng.Intn(NumCategories)), rng.Intn(4), start, end)
		}
		rep := r.CritPath(makespan)
		var covered uint64
		for _, ep := range rep.Epochs {
			if got, want := ep.Attr.Total(), ep.End-ep.Start; got != want {
				t.Fatalf("trial %d: epoch %d attribution sums to %d, epoch is %d cycles",
					trial, ep.Epoch, got, want)
			}
			covered += ep.End - ep.Start
		}
		if covered != makespan {
			t.Fatalf("trial %d: epochs cover %d of %d cycles", trial, covered, makespan)
		}
		if rep.Total.Total() != makespan {
			t.Fatalf("trial %d: total attribution %d != makespan %d", trial, rep.Total.Total(), makespan)
		}
	}
}

func TestCritPathNoEpochMarks(t *testing.T) {
	r := New(10)
	r.EnableFlows(10)
	r.Span(1, 0, SpanExec, CatBankBusy, 0, 0, 100)
	rep := r.CritPath(100)
	if len(rep.Epochs) != 1 || rep.Epochs[0].Start != 0 || rep.Epochs[0].End != 100 {
		t.Fatalf("markless run must degenerate to one epoch, got %+v", rep.Epochs)
	}
	if rep.Total.BankBusy != 100 {
		t.Errorf("bank-busy = %d, want 100", rep.Total.BankBusy)
	}
}

func TestCritPathRenderDeterministic(t *testing.T) {
	build := func() string {
		r := New(10)
		r.EnableFlows(10)
		r.Epoch(0, 0)
		r.Epoch(1, 40)
		a := r.Span(1, 0, SpanQueued, CatTaskQueue, 0, 0, 15)
		r.Span(1, a, SpanExec, CatBankBusy, 0, 15, 40)
		r.Span(2, 0, SpanBridgeQ, CatBridgeQueue, 1, 40, 90)
		return r.CritPath(100).Render()
	}
	if build() != build() {
		t.Error("Render is not deterministic")
	}
	out := build()
	for _, want := range []string{"critical-path attribution", "dominant bottleneck:", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
