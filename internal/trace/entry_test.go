package trace

import (
	"slices"
	"testing"

	"ndpbridge/internal/metrics"
)

// boundRecorder returns a flow-enabled recorder with its histograms bound to
// a fresh registry.
func boundRecorder() (*Recorder, *metrics.Registry) {
	r := New(10)
	r.EnableFlows(10)
	reg := metrics.NewRegistry()
	r.BindMetrics(reg, true)
	return r, reg
}

func TestTaskStartEnd(t *testing.T) {
	r, reg := boundRecorder()
	// A delivered task: its parent is the delivery leg, which ended when
	// the task entered the queue.
	deliver := r.Span(5, 0, SpanDeliver, CatGatherBatch, 2, 0, 20)
	exec := r.TaskStart(deliver, 99, 10, 2, 30)
	// A local child of that task: its queue wait starts at its spawn.
	child := r.TaskStart(exec, 100, 35, 2, 50)
	r.TaskEnd(exec, 2, 30, 45, "h")
	// Picked up before its spawn cycle: no latency sample, and the queue
	// span of this flow root clamps to zero length.
	r.TaskStart(0, 7, 100, 3, 60)

	sp := r.Spans()
	want := []Span{
		{Flow: 5, Start: 0, End: 20, Actor: 2, Kind: SpanDeliver, Cat: CatGatherBatch},
		{Flow: 5, Start: 20, End: 30, Parent: deliver, Actor: 2, Kind: SpanQueued, Cat: CatTaskQueue},
		{Flow: 5, Start: 30, End: 45, Parent: 2, Actor: 2, Kind: SpanExec, Cat: CatBankBusy},
		{Flow: 5, Start: 35, End: 50, Parent: exec, Actor: 2, Kind: SpanQueued, Cat: CatTaskQueue},
		{Flow: 5, Start: 50, End: 50, Parent: 4, Actor: 2, Kind: SpanExec, Cat: CatBankBusy},
		{Flow: 7, Start: 60, End: 60, Actor: 3, Kind: SpanQueued, Cat: CatTaskQueue},
		{Flow: 7, Start: 60, End: 60, Parent: 6, Actor: 3, Kind: SpanExec, Cat: CatBankBusy},
	}
	if !slices.Equal(sp, want) {
		t.Errorf("spans\n%+v\nwant\n%+v", sp, want)
	}
	if exec != 3 || child != 5 {
		t.Errorf("exec span IDs %d, %d, want 3, 5", exec, child)
	}
	if h := reg.FindHistogram("task_latency_cycles"); h.Count() != 2 || h.Sum() != 20+15 {
		t.Errorf("task_latency_cycles count %d sum %d, want 2 samples summing to 35", h.Count(), h.Sum())
	}
	if h := reg.FindHistogram("task_exec_cycles"); h.Count() != 1 || h.Sum() != 15 {
		t.Errorf("task_exec_cycles count %d sum %d, want one sample of 15", h.Count(), h.Sum())
	}
	if got, want := r.Events(), []Event{{Kind: KindTask, Actor: 2, Start: 30, End: 45, Label: "h"}}; !slices.Equal(got, want) {
		t.Errorf("events %+v, want %+v", got, want)
	}
}

func TestDeliveredAndEpoch(t *testing.T) {
	r, reg := boundRecorder()
	r.Delivered(3, 10, 25)
	r.Delivered(4, 30, 25) // staged after the commit: no latency sample
	r.Epoch(1, 40)
	wantEv := []Event{
		{Kind: KindDeliver, Actor: 3, Start: 25, End: 25},
		{Kind: KindDeliver, Actor: 4, Start: 25, End: 25},
		{Kind: KindEpoch, Actor: -1, Start: 40, End: 40, Label: "epoch 1"},
	}
	if got := r.Events(); !slices.Equal(got, wantEv) {
		t.Errorf("events %+v, want %+v", got, wantEv)
	}
	if h := reg.FindHistogram("msg_latency_cycles"); h.Count() != 1 || h.Sum() != 15 {
		t.Errorf("msg_latency_cycles count %d sum %d, want one sample of 15", h.Count(), h.Sum())
	}
	if got, want := r.Epochs(), []EpochMark{{N: 1, At: 40}}; !slices.Equal(got, want) {
		t.Errorf("epoch marks %+v, want %+v", got, want)
	}
	// Without flows an epoch is still an event, but marks nothing.
	off := New(10)
	off.Epoch(2, 50)
	if off.Len() != 1 || len(off.Epochs()) != 0 {
		t.Errorf("flows off: %d events, %d marks, want 1 and 0", off.Len(), len(off.Epochs()))
	}
}

func TestZeroRecorderFeedsOnlyHistograms(t *testing.T) {
	var r Recorder
	reg := metrics.NewRegistry()
	r.BindMetrics(reg, true)
	exec := r.TaskStart(0, 1, 0, 0, 10)
	r.TaskEnd(exec, 0, 10, 30, "x")
	r.Delivered(0, 5, 10)
	r.Epoch(0, 0)
	r.Record(KindLB, 0, 0, 0, "lb")
	if exec != 0 || r.Len() != 0 || r.Dropped() != 0 || r.SpanCount() != 0 || r.DroppedSpans() != 0 || len(r.Epochs()) != 0 {
		t.Errorf("zero recorder kept state: exec %d, %d events (%d dropped), %d spans (%d dropped), %d marks",
			exec, r.Len(), r.Dropped(), r.SpanCount(), r.DroppedSpans(), len(r.Epochs()))
	}
	// It keeps no spans to bill, so no wait histograms are registered.
	want := []string{"msg_latency_cycles", "task_exec_cycles", "task_latency_cycles"}
	if got := reg.HistogramNames(); !slices.Equal(got, want) {
		t.Fatalf("histograms %q, want %q", got, want)
	}
	for _, name := range want {
		if n := reg.FindHistogram(name).Count(); n != 1 {
			t.Errorf("%s count %d, want 1", name, n)
		}
	}
}
