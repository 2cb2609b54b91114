package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(KindTask, 0, 0, 10, "x") // must not panic
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Error("nil recorder must be inert")
	}
	if a, u := r.Utilization(100, 10); a != nil || u != nil {
		t.Error("nil recorder utilization must be empty")
	}
}

func TestRecordAndCap(t *testing.T) {
	r := New(3)
	for i := 0; i < 5; i++ {
		r.Record(KindTask, 1, uint64(i), uint64(i+1), "")
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3 (capped)", r.Len())
	}
	if r.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", r.Dropped())
	}
}

func TestRecordClampsReversedInterval(t *testing.T) {
	r := New(0)
	r.Record(KindGather, 0, 50, 10, "")
	e := r.Events()[0]
	if e.End < e.Start {
		t.Error("reversed interval not clamped")
	}
}

func TestFlowTraceEventsAreValidJSON(t *testing.T) {
	r := New(0)
	r.Record(KindTask, 0, 0, 100, "taskA")
	r.Record(KindDeliver, 1, 50, 60, "")
	r.Record(KindEpoch, -1, 100, 100, "barrier")
	var b strings.Builder
	if err := r.FlowTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(parsed) != 4 { // metadata record + 3 events
		t.Fatalf("parsed %d records", len(parsed))
	}
	if parsed[0]["name"] != "ndpbridge_trace_info" {
		t.Errorf("first record is not metadata: %v", parsed[0])
	}
	args := parsed[0]["args"].(map[string]any)
	if args["retained"].(float64) != 3 || args["dropped"].(float64) != 0 {
		t.Errorf("metadata args wrong: %v", args)
	}
	if parsed[1]["name"] != "taskA" || parsed[2]["name"] != "deliver" {
		t.Errorf("names wrong: %v", parsed)
	}
	// Zero-duration events get dur=1 so viewers render them.
	if parsed[3]["dur"].(float64) != 1 {
		t.Errorf("zero-duration event dur = %v", parsed[3]["dur"])
	}
}

func TestFlowTraceReportsDrops(t *testing.T) {
	r := New(2)
	for i := 0; i < 5; i++ {
		r.Record(KindTask, 0, uint64(i), uint64(i+1), "")
	}
	var b strings.Builder
	if err := r.FlowTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	args := parsed[0]["args"].(map[string]any)
	if args["retained"].(float64) != 2 || args["dropped"].(float64) != 3 || args["capacity"].(float64) != 2 {
		t.Errorf("metadata args = %v, want retained 2, dropped 3, capacity 2", args)
	}
}

func TestFlowTraceNilRecorder(t *testing.T) {
	var r *Recorder
	var b strings.Builder
	if err := r.FlowTrace(&b); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON from nil recorder: %v\n%s", err, b.String())
	}
	if len(parsed) != 1 || parsed[0]["name"] != "ndpbridge_trace_info" {
		t.Fatalf("nil recorder trace = %v, want only the metadata record", parsed)
	}
	for k, v := range parsed[0]["args"].(map[string]any) {
		if v.(float64) != 0 {
			t.Errorf("nil recorder metadata %s = %v, want 0", k, v)
		}
	}
}

func TestUtilization(t *testing.T) {
	r := New(0)
	// Actor 0 busy for the first half; actor 1 fully busy.
	r.Record(KindTask, 0, 0, 50, "")
	r.Record(KindTask, 1, 0, 100, "")
	r.Record(KindGather, 2, 0, 100, "") // non-task: ignored
	actors, util := r.Utilization(100, 4)
	if len(actors) != 2 || actors[0] != 0 || actors[1] != 1 {
		t.Fatalf("actors = %v", actors)
	}
	want0 := []float64{1, 1, 0, 0}
	for i, w := range want0 {
		if diff := util[0][i] - w; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("actor 0 bucket %d = %v, want %v", i, util[0][i], w)
		}
	}
	for i := range util[1] {
		if util[1][i] < 0.999 {
			t.Errorf("actor 1 bucket %d = %v, want 1", i, util[1][i])
		}
	}
}

func TestUtilizationSpansBuckets(t *testing.T) {
	r := New(0)
	r.Record(KindTask, 0, 25, 75, "") // half of bucket 0, all of 1... with 2 buckets of 50
	_, util := r.Utilization(100, 2)
	if util[0][0] != 0.5 || util[0][1] != 0.5 {
		t.Errorf("split wrong: %v", util[0])
	}
}

func TestUtilizationZeroLengthEvent(t *testing.T) {
	r := New(0)
	r.Record(KindTask, 0, 50, 50, "") // zero-length: contributes nothing
	r.Record(KindTask, 0, 0, 25, "")
	actors, util := r.Utilization(100, 4)
	if len(actors) != 1 {
		t.Fatalf("actors = %v", actors)
	}
	want := []float64{1, 0, 0, 0}
	for i, w := range want {
		if diff := util[0][i] - w; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("bucket %d = %v, want %v", i, util[0][i], w)
		}
	}
}

func TestUtilizationFullMakespan(t *testing.T) {
	r := New(0)
	r.Record(KindTask, 7, 0, 1000, "")
	actors, util := r.Utilization(1000, 7) // width not a divisor of makespan
	if len(actors) != 1 || actors[0] != 7 {
		t.Fatalf("actors = %v", actors)
	}
	for i, u := range util[0] {
		if u < 1-1e-9 || u > 1+1e-9 {
			t.Errorf("bucket %d = %v, want 1", i, u)
		}
	}
}

func TestUtilizationBucketBoundary(t *testing.T) {
	r := New(0)
	// Event exactly on a bucket boundary: must land fully in bucket 1,
	// leaving buckets 0 and 2 untouched.
	r.Record(KindTask, 0, 25, 50, "")
	_, util := r.Utilization(100, 4)
	want := []float64{0, 1, 0, 0}
	for i, w := range want {
		if diff := util[0][i] - w; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("bucket %d = %v, want %v", i, util[0][i], w)
		}
	}
}

func TestHeatmap(t *testing.T) {
	r := New(0)
	r.Record(KindTask, 3, 0, 100, "")
	hm := r.Heatmap(100, 8)
	if !strings.Contains(hm, "3 |") || !strings.Contains(hm, "@") {
		t.Errorf("heatmap:\n%s", hm)
	}
}

func TestKindString(t *testing.T) {
	if KindTask.String() != "task" || KindEpoch.String() != "epoch" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(250).String(), "250") {
		t.Error("unknown kind should show its number")
	}
}
