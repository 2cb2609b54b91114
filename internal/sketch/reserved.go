package sketch

import (
	"ndpbridge/internal/task"
)

// ReservedQueue is the in-DRAM reserved task queue of Section VI-C. Tasks on
// sketch-tracked blocks are held here, organized in G_xfer-sized chunks: each
// tracked block gets an initial chunk, and overflow chunks are allocated from
// a bitmap-managed pool to form a per-block linked list. When the pool is
// exhausted, new tasks fall back to the normal task queue (the caller handles
// the false return).
type ReservedQueue struct {
	chunkTasks  int // tasks per chunk (G_xfer / task record size)
	freeChunks  int
	totalChunks int
	total       int //ndplint:nosnap derived; the sum of the encoded per-block task counts

	blocks map[uint64]*blockList
	order  []uint64 // insertion order, for deterministic Drain
	// spare parks emptied blockLists so their task arrays are reused when
	// blocks churn through the queue instead of reallocated per block.
	spare []*blockList //ndplint:nosnap free-list of empty lists, no logical state
}

type blockList struct {
	tasks  []task.Task
	chunks int
}

// NewReservedQueue manages totalChunks chunks of chunkTasks tasks each.
func NewReservedQueue(totalChunks, chunkTasks int) *ReservedQueue {
	if totalChunks <= 0 || chunkTasks <= 0 {
		panic("sketch: reserved queue shape must be positive")
	}
	return &ReservedQueue{
		chunkTasks:  chunkTasks,
		freeChunks:  totalChunks,
		totalChunks: totalChunks,
		blocks:      make(map[uint64]*blockList),
	}
}

// Add appends a task under its block. It returns false when no chunk space
// is available, in which case the task belongs in the normal queue.
func (r *ReservedQueue) Add(block uint64, t task.Task) bool {
	bl := r.blocks[block]
	if bl == nil {
		if r.freeChunks == 0 {
			return false
		}
		if n := len(r.spare); n > 0 {
			bl = r.spare[n-1]
			r.spare[n-1] = nil
			r.spare = r.spare[:n-1]
			bl.chunks = 1
		} else {
			bl = &blockList{chunks: 1}
		}
		r.freeChunks--
		r.blocks[block] = bl
		if len(r.order) > 2*len(r.blocks)+64 {
			// Compact out blocks already taken.
			kept := r.order[:0]
			for _, b := range r.order {
				if _, ok := r.blocks[b]; ok {
					kept = append(kept, b)
				}
			}
			r.order = kept
		}
		r.order = append(r.order, block)
	}
	if len(bl.tasks) == bl.chunks*r.chunkTasks {
		if r.freeChunks == 0 {
			return false
		}
		bl.chunks++
		r.freeChunks--
	}
	bl.tasks = append(bl.tasks, t)
	r.total++
	return true
}

// TakeAppend appends block's reserved tasks to dst, frees its chunks, and
// parks the emptied storage for reuse. It returns dst (possibly regrown);
// dst is returned unchanged when the block has no reservation.
//
//ndplint:hotpath
func (r *ReservedQueue) TakeAppend(dst []task.Task, block uint64) []task.Task {
	bl := r.blocks[block]
	if bl == nil {
		return dst
	}
	delete(r.blocks, block)
	r.freeChunks += bl.chunks
	r.total -= len(bl.tasks)
	dst = append(dst, bl.tasks...)
	bl.tasks = bl.tasks[:0]
	bl.chunks = 0
	r.spare = append(r.spare, bl)
	return dst
}

// Drain removes and returns all reserved tasks of every block in insertion
// order, freeing all chunks. Used when falling back or finishing an epoch.
func (r *ReservedQueue) Drain() []task.Task {
	return r.DrainAppend(nil)
}

// DrainAppend is Drain appending into a caller-supplied buffer, recycling
// all internal storage.
func (r *ReservedQueue) DrainAppend(dst []task.Task) []task.Task {
	for _, b := range r.order {
		dst = r.TakeAppend(dst, b)
	}
	r.order = r.order[:0]
	return dst
}

// Len returns the number of reserved tasks of block.
func (r *ReservedQueue) Len(block uint64) int {
	if bl := r.blocks[block]; bl != nil {
		return len(bl.tasks)
	}
	return 0
}

// Total returns the number of reserved tasks across all blocks.
//
//ndplint:hotpath
func (r *ReservedQueue) Total() int { return r.total }

// FreeChunks returns the unallocated chunk count.
func (r *ReservedQueue) FreeChunks() int { return r.freeChunks }

// Workload sums effective workloads of the tasks reserved under block.
func (r *ReservedQueue) Workload(block uint64) uint64 {
	bl := r.blocks[block]
	if bl == nil {
		return 0
	}
	var w uint64
	for _, t := range bl.tasks {
		w += t.EffectiveWorkload()
	}
	return w
}
