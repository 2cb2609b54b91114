// Package task implements the task-based message-passing programming model of
// NDPBridge (Section IV). A task is the unit of computation and scheduling:
// it names a handler function, carries a bulk-synchronization timestamp, is
// bound to exactly one data element's physical address, and optionally
// estimates its own workload to aid load balancing.
package task

import (
	"fmt"

	"ndpbridge/internal/sim"
)

// FuncID names a registered task handler. Applications register handlers
// once, and tasks refer to them by ID so tasks can be serialized into
// messages.
type FuncID uint16

// MaxArgs is the number of additional 64-bit arguments a task may carry
// (bounded by the 64-byte message format of Figure 5).
const MaxArgs = 3

// Task is one data-centric unit of work. The zero value is not a valid task;
// use New.
type Task struct {
	Func  FuncID
	NArgs uint8
	TS    uint32 // bulk-synchronization timestamp (epoch)
	Addr  uint64 // physical address of the data element it operates on
	// Workload is the estimated cycles; 0 means unspecified.
	Workload uint32
	// Span is the 1-based trace-span ID of this task's causal parent while
	// flow tracing is on (zero otherwise, and for flow roots). The flow and
	// queue-entry cycle are derived from the parent record at pickup
	// (trace.Recorder.TaskOrigin), so this one uint32 — packed into what
	// would otherwise be padding — is the task's whole trace footprint and
	// the struct stays a single 64-byte cache line. Simulator measurement
	// metadata; never part of the wire format or snapshots.
	Span uint32
	Args [MaxArgs]uint64

	// SpawnedAt is the cycle the task was created, stamped by the runtime
	// at seed/enqueue time. Simulator measurement metadata (it feeds the
	// spawn→execute latency histograms); not part of the wire format.
	SpawnedAt uint64

	// ID is a run-unique task identity stamped by the runtime at
	// seed/enqueue time. Fault recovery dedups re-spawned tasks on it so a
	// task lost to a dead unit is re-executed exactly once. Zero means
	// unstamped (tasks constructed directly in tests).
	ID uint64
}

// New builds a task. It panics if more than MaxArgs arguments are supplied —
// that is a programming error, not a runtime condition.
func New(fn FuncID, ts uint32, addr uint64, workload uint32, args ...uint64) Task {
	if len(args) > MaxArgs {
		panic(fmt.Sprintf("task: %d args exceeds max %d", len(args), MaxArgs))
	}
	t := Task{Func: fn, TS: ts, Addr: addr, Workload: workload, NArgs: uint8(len(args))}
	copy(t.Args[:], args)
	return t
}

// ArgSlice returns the populated arguments.
func (t Task) ArgSlice() []uint64 { return t.Args[:t.NArgs] }

// EffectiveWorkload returns the task's workload estimate, substituting a
// default of 1 when unspecified so queue workload sums remain meaningful.
func (t Task) EffectiveWorkload() uint64 {
	if t.Workload == 0 {
		return 1
	}
	return uint64(t.Workload)
}

// Ctx is the execution context passed to task handlers. Handlers express
// their computation and memory behaviour through it; the simulator charges
// time and energy accordingly. All addresses are physical addresses in the
// NDP address space.
type Ctx interface {
	// Read charges a local DRAM read of n bytes at addr. The address must
	// be locally available (home-and-not-lent, or borrowed); handlers
	// operate only on local data under data-local execution.
	Read(addr uint64, n uint64)
	// Write charges a local DRAM write of n bytes at addr.
	Write(addr uint64, n uint64)
	// Compute charges pure computation cycles.
	Compute(cycles sim.Cycles)
	// Enqueue creates a child task. The runtime routes it to the unit
	// currently holding the task's data element (the enqueue_task API of
	// Section IV).
	Enqueue(t Task)
	// Unit returns the executing NDP unit's ID.
	Unit() int
	// Now returns the core's current cycle (start of this task).
	Now() sim.Cycles
	// Rand returns a deterministic per-unit random stream for
	// probabilistic handlers.
	Rand() *sim.RNG
}

// EndCtx is optionally implemented by execution contexts that expose the
// running task's private time cursor — the exact cycle the task will
// complete at, as charged so far. The serving layer uses it to measure
// per-request end-to-end latency without waiting for the completion event.
type EndCtx interface {
	Cursor() sim.Cycles
}

// Handler is the body of a task. It must be a pure function of the task and
// the application state: it runs once per task at simulation level.
type Handler func(ctx Ctx, t Task)

// Registry maps FuncIDs to handlers. A Registry is immutable after
// registration and safe for concurrent reads.
type Registry struct {
	handlers []Handler
	names    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a handler under a diagnostic name and returns its FuncID.
func (r *Registry) Register(name string, h Handler) FuncID {
	if h == nil {
		panic("task: nil handler")
	}
	r.handlers = append(r.handlers, h)
	r.names = append(r.names, name)
	return FuncID(len(r.handlers) - 1)
}

// Handler returns the handler for id.
func (r *Registry) Handler(id FuncID) Handler {
	if int(id) >= len(r.handlers) {
		panic(fmt.Sprintf("task: unregistered FuncID %d", id))
	}
	return r.handlers[id]
}

// Name returns the diagnostic name of id.
func (r *Registry) Name(id FuncID) string {
	if int(id) >= len(r.names) {
		return fmt.Sprintf("func%d", id)
	}
	return r.names[id]
}

// Len returns the number of registered handlers.
func (r *Registry) Len() int { return len(r.handlers) }
