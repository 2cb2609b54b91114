// Package msg defines the NDPBridge message formats of Figure 5 — task,
// data, and state messages — together with their wire encoding and the
// sub-message splitting used when a payload exceeds the 64-byte maximum
// message size.
package msg

import (
	"fmt"

	"ndpbridge/internal/task"
)

// Type distinguishes the three message kinds.
type Type uint8

const (
	// TypeTask transfers one task to another NDP unit.
	TypeTask Type = iota + 1
	// TypeData transfers a chunk of data for load balancing (data-first
	// scheduling).
	TypeData
	// TypeState carries a child's state information to its parent bridge
	// in response to STATE-GATHER.
	TypeState
)

func (t Type) String() string {
	switch t {
	case TypeTask:
		return "task"
	case TypeData:
		return "data"
	case TypeState:
		return "state"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// MaxSize is the maximum size of one message on the wire (Section V-B).
const MaxSize = 64

// HeaderSize is the fixed per-message header: type (1), index (1), total (1),
// pad (1), src (4), dst (4).
const HeaderSize = 12

// DataHeaderSize extends the header for data messages with the block address
// (8) and the chunk length (4).
const DataHeaderSize = HeaderSize + 12

// MaxDataPayload is the data payload carried by one data sub-message.
const MaxDataPayload = MaxSize - DataHeaderSize

// SchedOut describes one data block a giver has selected to lend out,
// appended to state messages during a load-balancing round (Section V-B).
type SchedOut struct {
	BlockAddr uint64
	Workload  uint64
}

// State is the payload of a state message: the occupancy and progress
// counters used by dynamic triggering (Section V-C) and load balancing
// (Section VI).
type State struct {
	LMailbox  uint64 // bytes waiting in the child's mailbox
	WQueue    uint64 // summed workload estimate of the task queue
	WFinished uint64 // cumulative finished workload
	SchedList []SchedOut
}

// Message is one NDPBridge message. Src and Dst are NDP unit IDs; for
// messages between bridges they are the IDs of the border units are not
// meaningful and only routing metadata matter, so bridges re-route on the
// task/data address fields.
type Message struct {
	Type Type
	Src  int
	Dst  int

	// Index/Total sequence sub-messages of one logical transfer.
	Index uint8
	Total uint8

	// Sched marks a scheduled-out message whose destination will be
	// assigned by the bridge (load-balancing step 4, Section VI-A). Dst
	// is -1 until assignment.
	Sched bool
	// Round identifies the load-balancing round (SCHEDULE command) that
	// produced a scheduled-out message, so bridges match it to the right
	// receiver set even when the giver serves several rounds back to
	// back. Level-1 rounds are even, level-2 rounds odd. Simulator
	// routing metadata; in hardware this rides in the reserved command
	// encoding.
	Round uint32
	// Escalate marks a task message chasing a block that left its home
	// rank: the level-1 bridge must forward it to the level-2 bridge,
	// whose dataBorrowed table knows the receiver (Section VI-B).
	Escalate bool

	// StagedAt is the cycle the message entered the sender's staging
	// buffer, stamped by the unit controller. Simulator measurement
	// metadata (it feeds the send→deliver latency histograms); not part
	// of the wire format.
	StagedAt uint64

	// Flow/Span/HopAt carry causal-trace identity while flow tracing is on:
	// the flow the message belongs to, the 1-based trace-span ID of the hop
	// that produced it (its causal parent), and the cycle its current hop
	// began (zero until the first hop completes — see HopStart). Simulator
	// measurement metadata like StagedAt — never part of the wire format,
	// the checksum, or snapshots; all-zero when tracing is off.
	Flow  uint64
	Span  uint32
	HopAt uint64

	// Seq and Sum are link-layer retry metadata, live only while the
	// message traverses one bridge hop under the fault-injection retry
	// protocol. The sender stamps a per-hop sequence number and a
	// checksum over the logical fields; the receiver verifies, acks, and
	// clears both before processing so the next hop starts fresh. Zero
	// Seq means "not in flight on a retried hop". In hardware these would
	// ride in the reserved bytes of the 64-byte format.
	Seq uint32
	Sum uint32

	// Task is set for TypeTask.
	Task task.Task

	// BlockAddr/ChunkLen are set for TypeData: the original (home)
	// address of the block and how many payload bytes this sub-message
	// carries.
	BlockAddr uint64
	ChunkLen  uint32

	// State is set for TypeState.
	State *State

	// Pool bookkeeping (see pool.go): the slot index and generation of a
	// pooled message, whether it is pool-owned at all, and whether it is
	// currently on the free list. Simulator memory-management metadata —
	// never part of the wire format, the checksum, or snapshots.
	pidx   uint32
	pgen   uint32
	pooled bool
	freed  bool
}

// Size returns the message's on-wire size in bytes, capped at MaxSize.
func (m *Message) Size() uint64 {
	switch m.Type {
	case TypeTask:
		// Header + func (2) + ts (4) + addr (8) + workload (4) +
		// nargs (1) + args.
		s := uint64(HeaderSize + 2 + 4 + 8 + 4 + 1 + 8*int(m.Task.NArgs))
		if s > MaxSize {
			s = MaxSize
		}
		return s
	case TypeData:
		return uint64(DataHeaderSize) + uint64(m.ChunkLen)
	case TypeState:
		// Header + three counters; the scheduling list rides in
		// follow-up sub-messages, accounted by SizeWithSchedList.
		return HeaderSize + 24
	}
	return HeaderSize
}

// HopStart returns the cycle the message's current hop began: HopAt once a
// hop span has been recorded, else the staging cycle. Keeping the first-hop
// stamp implicit (rather than storing HopAt at emit time) keeps the hot
// staging path free of trace code.
func (m *Message) HopStart() uint64 {
	if m.HopAt == 0 {
		return m.StagedAt
	}
	return m.HopAt
}

// RouteAddr returns the address the bridges route on: the data element
// address for task messages and the block address for data messages. State
// messages are not routed by address.
func (m *Message) RouteAddr() (uint64, bool) {
	switch m.Type {
	case TypeTask:
		return m.Task.Addr, true
	case TypeData:
		return m.BlockAddr, true
	}
	return 0, false
}

// NewTask builds a task message.
func NewTask(src, dst int, t task.Task) *Message {
	return &Message{Type: TypeTask, Src: src, Dst: dst, Task: t}
}

// NewState builds a state message.
func NewState(src, dst int, s State) *Message {
	return &Message{Type: TypeState, Src: src, Dst: dst, State: &s}
}

// SplitData splits a data block of length n at home address blockAddr into
// the minimal sequence of data sub-messages, each carrying at most
// MaxDataPayload bytes (Section V-B: "If a message is too large, we divide it
// into multiple small sub-messages. The index field indicates such a
// sequence.").
func SplitData(src, dst int, blockAddr uint64, n uint32) []*Message {
	if n == 0 {
		return nil
	}
	total := int((n + MaxDataPayload - 1) / MaxDataPayload)
	if total > 255 {
		panic(fmt.Sprintf("msg: data block of %d bytes needs %d sub-messages (max 255)", n, total))
	}
	out := make([]*Message, 0, total)
	remaining := n
	for i := 0; i < total; i++ {
		chunk := uint32(MaxDataPayload)
		if remaining < chunk {
			chunk = remaining
		}
		out = append(out, &Message{
			Type: TypeData, Src: src, Dst: dst,
			Index: uint8(i), Total: uint8(total),
			BlockAddr: blockAddr, ChunkLen: chunk,
		})
		remaining -= chunk
	}
	return out
}

// TotalSize sums the wire sizes of a message slice.
func TotalSize(ms []*Message) uint64 {
	var s uint64
	for _, m := range ms {
		s += m.Size()
	}
	return s
}

// StateSize returns the wire size of a state message including its appended
// scheduling list (each entry: addr 8 + workload 8).
func StateSize(s *State) uint64 {
	base := uint64(HeaderSize + 24)
	return base + uint64(len(s.SchedList))*16
}

// Checksum computes an FNV-1a hash over the message's logical fields — the
// ones a corrupted transfer could damage. Seq participates so a duplicate
// with a reused sequence number but different content is caught; Sum,
// StagedAt, and pointer identity do not.
func Checksum(m *Message) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint32(v & 0xff)
			h *= prime32
			v >>= 8
		}
	}
	mix(uint64(m.Type))
	mix(uint64(uint32(m.Src)))
	mix(uint64(uint32(m.Dst)))
	mix(uint64(m.Index)<<8 | uint64(m.Total))
	var flags uint64
	if m.Sched {
		flags |= 1
	}
	if m.Escalate {
		flags |= 2
	}
	mix(flags)
	mix(uint64(m.Round))
	mix(uint64(m.Seq))
	switch m.Type {
	case TypeTask:
		mix(uint64(m.Task.Func))
		mix(uint64(m.Task.TS))
		mix(m.Task.Addr)
		mix(uint64(m.Task.Workload))
		mix(m.Task.ID)
		for i := 0; i < int(m.Task.NArgs); i++ {
			mix(m.Task.Args[i])
		}
	case TypeData:
		mix(m.BlockAddr)
		mix(uint64(m.ChunkLen))
	case TypeState:
		if m.State != nil {
			mix(m.State.LMailbox)
			mix(m.State.WQueue)
			mix(m.State.WFinished)
			for _, so := range m.State.SchedList {
				mix(so.BlockAddr)
				mix(so.Workload)
			}
		}
	}
	return h
}

// Verify reports whether the stored checksum matches the payload.
func (m *Message) Verify() bool { return m.Sum == Checksum(m) }

// Clone returns an independent shallow copy for retransmission. The State
// payload pointer is shared: retry-layer receivers either accept exactly one
// copy (dedup) or discard, and accepted state messages are consumed
// read-only, so aliasing is safe. The copy does not inherit the original's
// pool identity — it is a plain allocation the pool will never recycle.
func (m *Message) Clone() *Message {
	c := *m
	c.pidx, c.pgen, c.pooled, c.freed = 0, 0, false, false
	return &c
}

// Corrupt models an in-flight bit error by flipping the stored checksum, so
// the receiver's Verify fails deterministically.
func (m *Message) Corrupt() { m.Sum = ^m.Sum }
