package msg

import (
	"testing"

	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
	"ndpbridge/internal/trace"
)

func flowRecorder() *trace.Recorder {
	r := trace.New(10)
	r.EnableFlows(10)
	return r
}

func TestHopChainsLegsFromStaging(t *testing.T) {
	rec := flowRecorder()
	exec := rec.TaskStart(0, 42, 0, 0, 0) // a flow-root task: flow 42
	m := NewPool().NewTaskIn(0, 1, task.Task{ID: 43, Span: exec})
	m.StagedAt = 5
	m.Hop(rec, trace.SpanMailbox, trace.CatGatherBatch, 0, 20)
	m.Hop(rec, trace.SpanDeliver, trace.CatHostRT, 1, 30)
	sp := rec.Spans()
	first, second := sp[len(sp)-2], sp[len(sp)-1]
	// The first leg starts at staging, chains to the spawning execution
	// and joins that task's flow.
	if first.Start != 5 || first.End != 20 || first.Parent != exec || first.Flow != 42 ||
		first.Kind != trace.SpanMailbox || first.Cat != trace.CatGatherBatch {
		t.Errorf("first leg %+v", first)
	}
	if second.Start != 20 || second.End != 30 || int(second.Parent) != len(sp)-1 || second.Flow != 42 ||
		second.Actor != 1 || second.Cat != trace.CatHostRT {
		t.Errorf("second leg %+v", second)
	}
	if m.Flow != 42 || int(m.Span) != len(sp) || m.HopAt != 30 {
		t.Errorf("message stamps flow %d span %d hopAt %d", m.Flow, m.Span, m.HopAt)
	}
}

func TestHopTakesTaskFlowOnceAtFirstLeg(t *testing.T) {
	rec := flowRecorder()
	// Past its first leg (HopAt set) a task message keeps its flow, even
	// where its parent span and task ID would name another.
	m := NewTask(0, 1, task.Task{ID: 7})
	m.Flow, m.HopAt = 42, 10
	m.Hop(rec, trace.SpanBridgeQ, trace.CatBridgeQueue, -1, 15)
	if got := rec.Spans()[0].Flow; got != 42 || m.Flow != 42 {
		t.Errorf("later leg flow %d (message %d), want 42", got, m.Flow)
	}
	// A data message keeps the flow its sender issued.
	d := &Message{Type: TypeData, Flow: rec.NewFlow(), StagedAt: 3}
	want := d.Flow
	d.Hop(rec, trace.SpanMailbox, trace.CatGatherBatch, 0, 8)
	if d.Flow != want || rec.Spans()[1].Flow != want || rec.Spans()[1].Start != 3 {
		t.Errorf("data leg %+v, want flow %d from staging", rec.Spans()[1], want)
	}
}

func TestHopBillsLoadBalanceTraffic(t *testing.T) {
	rec := flowRecorder()
	for _, m := range []*Message{
		{Type: TypeData, Sched: true},
		{Type: TypeTask, Round: 2},
		{Type: TypeTask},
	} {
		m.Hop(rec, trace.SpanBridgeQ, trace.CatBridgeQueue, -1, 10)
	}
	sp := rec.Spans()
	if sp[0].Cat != trace.CatLBMigration || sp[1].Cat != trace.CatLBMigration || sp[2].Cat != trace.CatBridgeQueue {
		t.Errorf("categories %v %v %v, want lb-migration, lb-migration, bridge-queue", sp[0].Cat, sp[1].Cat, sp[2].Cat)
	}
}

func TestHopWithoutFlowsChangesNothing(t *testing.T) {
	for name, rec := range map[string]*trace.Recorder{"nil": nil, "flows off": trace.New(10)} {
		m := NewTask(0, 1, task.Task{ID: 9, Span: 3})
		m.StagedAt = 4
		before := *m
		m.Hop(rec, trace.SpanMailbox, trace.CatGatherBatch, 0, 20)
		if *m != before {
			t.Errorf("%s: Hop changed the message: %+v → %+v", name, before, *m)
		}
		if rec.SpanCount() != 0 {
			t.Errorf("%s: Hop recorded %d spans", name, rec.SpanCount())
		}
	}
}

// TestRetransChainsRetrySpans: each retransmission records the wait since
// the message's last leg (or previous retry) as a retry span and advances
// the tracked message to it, so the resent copy's next leg — and a later
// retry — chain from there.
func TestRetransChainsRetrySpans(t *testing.T) {
	rec := flowRecorder()
	eng := sim.NewEngine()
	var sent []*Message
	r := NewRetrans(eng, 10, 40, 1<<20, func(m *Message) { sent = append(sent, m) })
	r.SetTrace(func() *trace.Recorder { return rec }, 5)
	m := taskMsg(1)
	m.Flow = 8
	m.Span = rec.Span(8, 0, trace.SpanMailbox, trace.CatGatherBatch, 5, 0, 2)
	m.HopAt = 2
	eng.At(2, func() { r.Track(m) })
	eng.RunUntil(35) // resends at 12 (timeout 10) and 32 (backed off to 20)
	sp := rec.Spans()
	if len(sp) != 3 || len(sent) != 2 {
		t.Fatalf("%d spans, %d resends, want 3 and 2", len(sp), len(sent))
	}
	for i, want := range []trace.Span{
		{Flow: 8, Start: 2, End: 12, Parent: 1, Actor: 5, Kind: trace.SpanRetx, Cat: trace.CatRetry},
		{Flow: 8, Start: 12, End: 32, Parent: 2, Actor: 5, Kind: trace.SpanRetx, Cat: trace.CatRetry},
	} {
		if sp[i+1] != want {
			t.Errorf("retry %d span %+v, want %+v", i, sp[i+1], want)
		}
	}
	if c := sent[1]; c.Span != 3 || c.HopAt != 32 {
		t.Errorf("second resend carries span %d hopAt %d, want 3 and 32", c.Span, c.HopAt)
	}
}
