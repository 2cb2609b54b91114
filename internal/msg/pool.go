package msg

import "ndpbridge/internal/task"

// poolSlab is the number of Messages allocated per arena slab.
const poolSlab = 256

// Handle names one pooled Message at one point in its lifetime. A handle
// taken before the message is freed stops resolving afterwards: Put bumps
// the message's generation, so Live detects use-after-free instead of
// silently reading recycled storage.
type Handle struct {
	idx uint32
	gen uint32
}

// Pool is a free-list arena of Messages. Messages on the simulation hot path
// live one logical hop sequence — created at a sender, consumed terminally
// at receive time — so recycling them removes the dominant per-hop
// allocation. A Pool is owned by one System and is not safe for concurrent
// use (simulations are share-nothing).
//
// Fault-injection runs never free (retry layers hold message pointers in
// retransmit buffers past delivery); the pool then degrades to a plain
// arena, which is still cheaper than individual allocations.
type Pool struct {
	slabs [][]Message
	free  []uint32
	live  int
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// grow adds one slab and pushes its slots on the free list.
func (p *Pool) grow() {
	base := uint32(len(p.slabs) * poolSlab)
	slab := make([]Message, poolSlab)
	p.slabs = append(p.slabs, slab)
	for i := poolSlab - 1; i >= 0; i-- {
		slab[i].pidx = base + uint32(i)
		slab[i].freed = true
		p.free = append(p.free, base+uint32(i))
	}
}

//ndplint:hotpath
func (p *Pool) at(idx uint32) *Message { return &p.slabs[idx/poolSlab][idx%poolSlab] }

// Get returns a zeroed Message owned by the pool. The message keeps its slot
// identity and current generation; everything else is cleared.
//
//ndplint:hotpath
func (p *Pool) Get() *Message {
	if len(p.free) == 0 {
		p.grow() //ndplint:alloc amortized slab growth, one make per poolSlab Gets
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	m := p.at(idx)
	gen := m.pgen
	*m = Message{pidx: idx, pgen: gen, pooled: true}
	p.live++
	return m
}

// Put returns a pooled message to the free list and bumps its generation so
// outstanding Handles stop resolving. Messages not owned by this pool
// (plain allocations, Clones) are ignored; freeing twice panics — it is
// always a lifecycle bug.
//
//ndplint:hotpath
func (p *Pool) Put(m *Message) {
	if !m.pooled {
		return
	}
	if m.freed {
		panic("msg: double free of pooled message")
	}
	m.freed = true
	m.pgen++
	m.Task = task.Task{}
	m.State = nil
	p.free = append(p.free, m.pidx)
	p.live--
}

// Live reports whether h still names the allocation it was taken from: the
// slot exists, has not been freed, and has not been recycled into a newer
// generation.
func (p *Pool) Live(h Handle) bool {
	if int(h.idx) >= len(p.slabs)*poolSlab {
		return false
	}
	m := p.at(h.idx)
	return !m.freed && m.pgen == h.gen
}

// InUse returns the number of live (gotten, not yet put) messages.
func (p *Pool) InUse() int { return p.live }

// Handle returns a generation-checked handle for a pooled message. The
// second return is false for messages not owned by a pool.
func (m *Message) Handle() (Handle, bool) {
	if !m.pooled {
		return Handle{}, false
	}
	return Handle{idx: m.pidx, gen: m.pgen}, true
}

// NewTaskIn builds a task message from the pool.
//
//ndplint:hotpath
func (p *Pool) NewTaskIn(src, dst int, t task.Task) *Message {
	m := p.Get()
	m.Type = TypeTask
	m.Src = src
	m.Dst = dst
	m.Task = t
	// The hop-chain parent is the task's causal parent; the flow is stamped
	// by the caller when tracing is on (the pool has no recorder access).
	m.Span = t.Span
	return m
}

// SplitDataInto is SplitData backed by the pool, appending the sub-messages
// to buf (usually a reused scratch slice) instead of allocating a fresh
// slice and fresh Messages per call.
//
//ndplint:hotpath
func (p *Pool) SplitDataInto(buf []*Message, src, dst int, blockAddr uint64, n uint32) []*Message {
	if n == 0 {
		return buf
	}
	total := int((n + MaxDataPayload - 1) / MaxDataPayload)
	if total > 255 {
		panic("msg: data block too large for 255 sub-messages")
	}
	remaining := n
	for i := 0; i < total; i++ {
		chunk := uint32(MaxDataPayload)
		if remaining < chunk {
			chunk = remaining
		}
		m := p.Get()
		m.Type = TypeData
		m.Src = src
		m.Dst = dst
		m.Index = uint8(i)
		m.Total = uint8(total)
		m.BlockAddr = blockAddr
		m.ChunkLen = chunk
		buf = append(buf, m)
		remaining -= chunk
	}
	return buf
}
