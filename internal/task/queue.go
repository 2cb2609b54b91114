package task

import "slices"

// Queue is a FIFO task queue that tracks the summed workload estimate of its
// contents — the W_queue state reported to bridges (Section V-B). Tasks of
// different bulk-sync epochs are kept in per-epoch FIFOs so a unit never
// executes an epoch-(e+1) task while epoch-e tasks remain.
//
// The queue also supports popping from the tail, which traditional work
// stealing uses to select victim tasks (Section VI-C).
type Queue struct {
	// epochs holds the non-empty FIFOs in ascending epoch order. A task's
	// children inherit its epoch, so few epochs are ever live at once and
	// a linear find is cheaper than a map probe.
	epochs []*fifo
	size   int //ndplint:nosnap derived; the sum of the encoded FIFO lengths
	// spare recycles emptied per-epoch FIFOs so their backing arrays are
	// reused across epochs instead of reallocated and regrown every epoch.
	spare []*fifo //ndplint:nosnap free-list of empty FIFOs, no logical state
}

type fifo struct {
	ts       uint32
	items    []Task
	head     int
	workload uint64
}

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) push(t Task) {
	f.items = append(f.items, t)
	f.workload += t.EffectiveWorkload()
}

func (f *fifo) pop() (Task, bool) {
	if f.len() == 0 {
		return Task{}, false
	}
	t := f.items[f.head]
	f.items[f.head] = Task{}
	f.head++
	f.workload -= t.EffectiveWorkload()
	if f.head > 64 && f.head*2 >= len(f.items) {
		n := copy(f.items, f.items[f.head:])
		f.items = f.items[:n]
		f.head = 0
	}
	return t, true
}

func (f *fifo) popTail() (Task, bool) {
	if f.len() == 0 {
		return Task{}, false
	}
	t := f.items[len(f.items)-1]
	f.items[len(f.items)-1] = Task{}
	f.items = f.items[:len(f.items)-1]
	f.workload -= t.EffectiveWorkload()
	return t, true
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// find returns epoch ts's position in q.epochs — where it is, or where it
// would be inserted — and whether it is there.
func (q *Queue) find(ts uint32) (int, bool) {
	for i, f := range q.epochs {
		if f.ts >= ts {
			return i, f.ts == ts
		}
	}
	return len(q.epochs), false
}

// Push appends a task to its epoch's FIFO.
func (q *Queue) Push(t Task) {
	i, ok := q.find(t.TS)
	if !ok {
		var f *fifo
		if n := len(q.spare); n > 0 {
			f = q.spare[n-1]
			q.spare[n-1] = nil
			q.spare = q.spare[:n-1]
		} else {
			f = &fifo{}
		}
		f.ts = t.TS
		q.epochs = slices.Insert(q.epochs, i, f)
	}
	q.epochs[i].push(t)
	q.size++
}

// retire removes the emptied FIFO at position i and parks it on the free
// list with its backing array retained.
func (q *Queue) retire(i int) {
	f := q.epochs[i]
	q.epochs = slices.Delete(q.epochs, i, i+1)
	f.items = f.items[:0]
	f.head = 0
	f.workload = 0
	q.spare = append(q.spare, f)
}

// Pop removes the oldest task of epoch ts. It returns false if none exists.
func (q *Queue) Pop(ts uint32) (Task, bool) {
	i, ok := q.find(ts)
	if !ok {
		return Task{}, false
	}
	f := q.epochs[i]
	t, ok := f.pop()
	if ok {
		q.size--
		if f.len() == 0 {
			q.retire(i)
		}
	}
	return t, ok
}

// PopTail removes the newest task of epoch ts (work-stealing victim side).
func (q *Queue) PopTail(ts uint32) (Task, bool) {
	i, ok := q.find(ts)
	if !ok {
		return Task{}, false
	}
	f := q.epochs[i]
	t, ok := f.popTail()
	if ok {
		q.size--
		if f.len() == 0 {
			q.retire(i)
		}
	}
	return t, ok
}

// Len returns the total queued tasks across epochs.
func (q *Queue) Len() int { return q.size }

// LenEpoch returns the number of queued tasks of epoch ts.
func (q *Queue) LenEpoch(ts uint32) int {
	if i, ok := q.find(ts); ok {
		return q.epochs[i].len()
	}
	return 0
}

// Workload returns the summed workload estimate of epoch ts — the W_queue
// value reported in state messages.
func (q *Queue) Workload(ts uint32) uint64 {
	if i, ok := q.find(ts); ok {
		return q.epochs[i].workload
	}
	return 0
}

// DrainAll removes and returns every queued task across all epochs, oldest
// first within each epoch and epochs in ascending order. Used by fault
// recovery to evacuate a dead unit's queue for re-spawning elsewhere.
func (q *Queue) DrainAll() []Task {
	if q.size == 0 {
		return nil
	}
	out := make([]Task, 0, q.size)
	for len(q.epochs) > 0 {
		f := q.epochs[0]
		out = append(out, f.items[f.head:]...)
		q.retire(0)
	}
	q.size = 0
	return out
}

// TotalWorkload sums workload across all epochs.
func (q *Queue) TotalWorkload() uint64 {
	var w uint64
	for _, f := range q.epochs {
		w += f.workload
	}
	return w
}
