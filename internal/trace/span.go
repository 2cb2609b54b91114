// Causal flow spans. Beyond flat activity intervals, the recorder can track
// *flows*: causal chains that follow a root task (or a migrated data block)
// through every hop of the unit → L1 bridge → L2 bridge → host path. Each hop
// is a Span carrying the flow ID, a link to its parent span, a kind (what the
// flow was doing) and a category (who gets billed for the time). A task's
// spans come from TaskStart/TaskEnd, a message's from msg.(*Message).Hop.
// Spans feed the Perfetto flow arrows (FlowTrace) and the critical-path
// analysis (CritPath). Span recording is off by default — EnableFlows
// switches it on — and every method is a no-op on a nil or flow-disabled
// recorder, so hot call sites stay allocation-free when tracing is off.
package trace

import (
	"bufio"
	"fmt"
	"io"
)

// SpanKind says what the flow was doing during the span.
type SpanKind uint8

const (
	// SpanQueued is time a task spent in a unit's (or host core's) ready
	// queue between enqueue and execution start.
	SpanQueued SpanKind = iota
	// SpanExec is one task execution.
	SpanExec
	// SpanMailbox is time a staged message waited in a unit mailbox before
	// a bridge or the host drained it.
	SpanMailbox
	// SpanBridgeQ is time spent in a bridge buffer (scatter queue, upMail).
	SpanBridgeQ
	// SpanDeliver is the final in-flight leg ending at a destination commit.
	SpanDeliver
	// SpanBlocked is a backpressure refusal: a drain was skipped because the
	// retransmit window was full (blocked on credit).
	SpanBlocked
	// SpanRetx is a retransmission wait: the round-trip that timed out (or
	// was nacked) before the link layer resent the message.
	SpanRetx
	nSpanKinds
)

var spanKindNames = [nSpanKinds]string{
	"queued", "exec", "mailbox", "bridgeq", "deliver", "blocked", "retx",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("SpanKind(%d)", uint8(k))
}

// Category is the exclusive makespan-attribution bucket a span bills to.
// The critical-path walk charges every cycle of an epoch to exactly one
// category, so the categories must partition "where did the time go".
type Category uint8

const (
	// CatBankBusy: an NDP core (or host core) was executing a task.
	CatBankBusy Category = iota
	// CatTaskQueue: a ready task waited behind others in a unit queue.
	CatTaskQueue
	// CatGatherBatch: a message waited for a bridge gather/scatter round to
	// pick it up (batching delay).
	CatGatherBatch
	// CatBridgeQueue: a message waited in a bridge buffer.
	CatBridgeQueue
	// CatLBMigration: a load-balancing command or migrated data block was in
	// flight.
	CatLBMigration
	// CatRetry: retransmission round-trips and credit stalls.
	CatRetry
	// CatHostRT: host / level-2 channel round-trips (polling, forwarding,
	// cross-rank batches).
	CatHostRT
	// CatSlack is residual time no recorded span explains (barrier kicks,
	// untracked gaps). The attribution walk never leaves cycles unbilled, so
	// honest slack is reported rather than silently absorbed.
	CatSlack
	nCategories
)

// NumCategories is the number of attribution categories (including slack).
const NumCategories = int(nCategories)

var categoryNames = [nCategories]string{
	"bank-busy", "task-queue", "gather-batch", "bridge-queue",
	"lb-migration", "retry-backoff", "host-roundtrip", "slack",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Span is one causally-linked interval of a flow. Parent is the 1-based ID
// of the span that caused this one (0 = root): parents are always recorded
// before children, so Parent < this span's own ID and parent walks terminate.
type Span struct {
	Flow   uint64
	Start  uint64
	End    uint64
	Parent uint32
	Actor  int32
	Kind   SpanKind
	Cat    Category
}

// EpochMark records a bulk-synchronization barrier: epoch N began at At.
type EpochMark struct {
	N  uint32
	At uint64
}

// EnableFlows switches on causal span recording with the given span capacity
// (0 = default 2M). Spans past the cap are counted as dropped, bounding
// memory on long runs.
func (r *Recorder) EnableFlows(capacity int) {
	if r == nil {
		return
	}
	if capacity <= 0 {
		capacity = 2_000_000
	}
	r.flows = true
	r.spanCap = capacity
}

// FlowsEnabled reports whether causal span recording is on.
func (r *Recorder) FlowsEnabled() bool { return r != nil && r.flows }

// NewFlow issues a fresh flow ID for roots that are not tasks (migrated
// blocks, LB commands). The high bit keeps these IDs disjoint from task IDs,
// which seed task flows directly.
func (r *Recorder) NewFlow() uint64 {
	if r == nil || !r.flows {
		return 0
	}
	r.nextFlow++
	return r.nextFlow | 1<<63
}

// Span records one closed causal span and returns its 1-based ID (0 when
// disabled or dropped — a valid Parent for subsequent spans either way).
// End < Start is clamped to a zero-length span at End.
func (r *Recorder) Span(flow uint64, parent uint32, k SpanKind, cat Category, actor int, start, end uint64) uint32 {
	if r == nil || !r.flows {
		return 0
	}
	if len(r.spans) >= r.spanCap {
		r.spanDrops++
		return 0
	}
	if end < start {
		start = end
	}
	r.catHist[cat].Observe(end - start)
	r.spans = append(r.spans, Span{
		Flow: flow, Start: start, End: end,
		Parent: parent, Actor: int32(actor), Kind: k, Cat: cat,
	})
	return uint32(len(r.spans))
}

// openSpan records a span whose end is not yet known (End == Start until
// closeSpan). Children spawned mid-span can already reference the returned
// ID as their parent.
func (r *Recorder) openSpan(flow uint64, parent uint32, k SpanKind, cat Category, actor int, start uint64) uint32 {
	if len(r.spans) >= r.spanCap {
		r.spanDrops++
		return 0
	}
	r.spans = append(r.spans, Span{
		Flow: flow, Start: start, End: start,
		Parent: parent, Actor: int32(actor), Kind: k, Cat: cat,
	})
	return uint32(len(r.spans))
}

// closeSpan sets the end of a span opened with openSpan and bills its
// duration to the span's category histogram.
func (r *Recorder) closeSpan(id uint32, end uint64) {
	if id == 0 || int(id) > len(r.spans) {
		return
	}
	sp := &r.spans[id-1]
	if end < sp.Start {
		end = sp.Start
	}
	sp.End = end
	r.catHist[sp.Cat].Observe(end - sp.Start)
}

// taskOrigin resolves the flow and queue-entry cycle of a task whose causal
// parent is span. Tasks carry only the parent span ID (one uint32 — keeping
// the Task struct a single cache line); the flow is read back from the parent
// record, which is always closed by pickup time: exec spans close
// synchronously with the spawning handler, hop spans close at record time. A
// parentless task is a flow root keyed by its own ID. Exec-span parents mean
// a locally-spawned child, whose queue wait began at its spawn cycle; any
// other parent is a delivery hop, whose End is the moment the task entered
// this queue.
func (r *Recorder) taskOrigin(span uint32, id, spawnedAt uint64) (flow, enq uint64) {
	if r == nil || span == 0 || int(span) > len(r.spans) {
		return id, spawnedAt
	}
	sp := r.spans[span-1]
	if sp.Kind == SpanExec {
		return sp.Flow, spawnedAt
	}
	return sp.Flow, sp.End
}

// TaskFlow returns the flow of the task with ID id whose causal parent is
// span: a task message joins it at its first leg (msg.(*Message).Hop).
func (r *Recorder) TaskFlow(span uint32, id uint64) uint64 {
	flow, _ := r.taskOrigin(span, id, 0)
	return flow
}

// Spans returns the retained spans (do not modify).
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SpanCount returns the number of retained spans.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// DroppedSpans returns how many spans exceeded the span capacity.
func (r *Recorder) DroppedSpans() uint64 {
	if r == nil {
		return 0
	}
	return r.spanDrops
}

// Epochs returns the recorded epoch marks (do not modify).
func (r *Recorder) Epochs() []EpochMark {
	if r == nil {
		return nil
	}
	return r.epochs
}

// FlowTrace writes the run's Chrome/Perfetto trace JSON array: the activity
// events, the causal spans, and one flow arrow ("s"/"f" event pair) per
// parent→child span edge, so Perfetto renders the unit→bridge→host chains
// as connected arrows. Units appear as thread lanes; cycle timestamps are
// emitted as microseconds so the viewer's time axis reads directly in
// cycles. The leading metadata record carries retained/dropped counts for
// both events and spans, so a consumer can tell a complete capture from one
// truncated at a cap. A nil recorder writes a valid trace holding only that
// record.
func (r *Recorder) FlowTrace(w io.Writer) error {
	capacity, spanCap := 0, 0
	if r != nil {
		capacity, spanCap = r.cap, r.spanCap
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw,
		`[`+"\n"+`  {"name":"ndpbridge_trace_info","ph":"M","pid":0,"tid":0,"args":{"retained":%d,"dropped":%d,"capacity":%d,"spans":%d,"spans_dropped":%d,"span_capacity":%d}}`,
		r.Len(), r.Dropped(), capacity, r.SpanCount(), r.DroppedSpans(), spanCap); err != nil {
		return err
	}
	for _, e := range r.Events() {
		dur := e.End - e.Start
		if dur == 0 {
			dur = 1
		}
		name := e.Label
		if name == "" {
			name = e.Kind.String()
		}
		if _, err := fmt.Fprintf(bw,
			",\n"+`  {"name":%q,"cat":%q,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d}`,
			name, e.Kind, e.Start, dur, e.Actor+1); err != nil {
			return err
		}
	}
	spans := r.Spans()
	for i, sp := range spans {
		dur := sp.End - sp.Start
		if dur == 0 {
			dur = 1
		}
		if _, err := fmt.Fprintf(bw,
			",\n"+`  {"name":%q,"cat":%q,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d,"args":{"flow":%d,"span":%d,"parent":%d}}`,
			sp.Kind, sp.Cat, sp.Start, dur, sp.Actor+1, sp.Flow, i+1, sp.Parent); err != nil {
			return err
		}
	}
	// Flow arrows: the "s" (start) event sits on the parent span's lane at
	// the causal handoff instant, the "f" (finish, bp:"e") event on the
	// child's lane at the child's start. The arrow ID is the child span's ID,
	// unique per edge since each span has exactly one parent.
	for i, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		parent := spans[sp.Parent-1]
		handoff := parent.End
		if handoff > sp.Start {
			handoff = sp.Start
		}
		if handoff < parent.Start {
			handoff = parent.Start
		}
		if _, err := fmt.Fprintf(bw,
			",\n"+`  {"name":"flow","cat":"flow","ph":"s","id":%d,"ts":%d,"pid":0,"tid":%d}`+
				",\n"+`  {"name":"flow","cat":"flow","ph":"f","bp":"e","id":%d,"ts":%d,"pid":0,"tid":%d}`,
			i+1, handoff, parent.Actor+1, i+1, sp.Start, sp.Actor+1); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
