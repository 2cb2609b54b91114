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
	epochs map[uint32]*fifo
	size   int //ndplint:nosnap derived; recomputed by RestoreFrom via Push
	// spare recycles emptied per-epoch FIFOs so their backing arrays are
	// reused across epochs instead of reallocated and regrown every epoch.
	spare []*fifo //ndplint:nosnap free-list of empty FIFOs, no logical state
}

type fifo struct {
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
func NewQueue() *Queue {
	return &Queue{epochs: make(map[uint32]*fifo)}
}

// Push appends a task to its epoch's FIFO.
func (q *Queue) Push(t Task) {
	f := q.epochs[t.TS]
	if f == nil {
		if n := len(q.spare); n > 0 {
			f = q.spare[n-1]
			q.spare[n-1] = nil
			q.spare = q.spare[:n-1]
		} else {
			f = &fifo{}
		}
		q.epochs[t.TS] = f
	}
	f.push(t)
	q.size++
}

// retire removes an emptied epoch FIFO from the map and parks it on the
// free list with its backing array retained.
func (q *Queue) retire(ts uint32, f *fifo) {
	delete(q.epochs, ts)
	f.items = f.items[:0]
	f.head = 0
	f.workload = 0
	q.spare = append(q.spare, f)
}

// Pop removes the oldest task of epoch ts. It returns false if none exists.
func (q *Queue) Pop(ts uint32) (Task, bool) {
	f := q.epochs[ts]
	if f == nil {
		return Task{}, false
	}
	t, ok := f.pop()
	if ok {
		q.size--
		if f.len() == 0 {
			q.retire(ts, f)
		}
	}
	return t, ok
}

// PopTail removes the newest task of epoch ts (work-stealing victim side).
func (q *Queue) PopTail(ts uint32) (Task, bool) {
	f := q.epochs[ts]
	if f == nil {
		return Task{}, false
	}
	t, ok := f.popTail()
	if ok {
		q.size--
		if f.len() == 0 {
			q.retire(ts, f)
		}
	}
	return t, ok
}

// Len returns the total queued tasks across epochs.
func (q *Queue) Len() int { return q.size }

// LenEpoch returns the number of queued tasks of epoch ts.
func (q *Queue) LenEpoch(ts uint32) int {
	if f := q.epochs[ts]; f != nil {
		return f.len()
	}
	return 0
}

// Workload returns the summed workload estimate of epoch ts — the W_queue
// value reported in state messages.
func (q *Queue) Workload(ts uint32) uint64 {
	if f := q.epochs[ts]; f != nil {
		return f.workload
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
	epochs := make([]uint32, 0, len(q.epochs))
	for ts := range q.epochs {
		epochs = append(epochs, ts)
	}
	slices.Sort(epochs)
	out := make([]Task, 0, q.size)
	for _, ts := range epochs {
		for {
			t, ok := q.Pop(ts)
			if !ok {
				break
			}
			out = append(out, t)
		}
	}
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
