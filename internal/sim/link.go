package sim

// Link models a shared, bandwidth-limited transfer resource such as a DRAM
// chip's DQ pins, the internal bus of a rank, or a memory channel. Transfers
// reserve the link FIFO-style: a transfer of n bytes issued at time t starts
// at max(t, busyUntil) plus a fixed latency and occupies the link for
// ceil(n / bytesPerCycle) cycles.
//
// Link is a passive bookkeeping structure: callers obtain the completion time
// and schedule their own events on the Engine.
type Link struct {
	name          string
	bytesPerCycle uint64
	latency       Cycles // fixed per-transfer latency (command, propagation)
	busyUntil     Cycles

	// Accounting.
	bytes     uint64
	transfers uint64
	busy      Cycles // total occupied cycles
}

// NewLink returns a link transferring bytesPerCycle bytes each cycle with a
// fixed per-transfer latency. bytesPerCycle must be at least 1.
func NewLink(name string, bytesPerCycle uint64, latency Cycles) *Link {
	if bytesPerCycle == 0 {
		panic("sim: link bandwidth must be positive")
	}
	return &Link{name: name, bytesPerCycle: bytesPerCycle, latency: latency}
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Duration returns how many cycles a transfer of n bytes occupies the link,
// excluding queueing and fixed latency.
func (l *Link) Duration(n uint64) Cycles {
	if n == 0 {
		return 0
	}
	return (n + l.bytesPerCycle - 1) / l.bytesPerCycle
}

// Reserve books a transfer of n bytes issued at time now and returns the
// completion time. The link is occupied from max(now, busyUntil) for
// latency + Duration(n) cycles.
func (l *Link) Reserve(now Cycles, n uint64) Cycles {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	d := l.latency + l.Duration(n)
	end := start + d
	l.busyUntil = end
	l.bytes += n
	l.transfers++
	l.busy += d
	return end
}

// NextFree returns the earliest time a new transfer could start.
func (l *Link) NextFree(now Cycles) Cycles {
	if l.busyUntil > now {
		return l.busyUntil
	}
	return now
}

// Stats returns cumulative transferred bytes, number of transfers, and busy
// cycles.
func (l *Link) Stats() (bytes, transfers uint64, busy Cycles) {
	return l.bytes, l.transfers, l.busy
}

// Reset clears accounting and availability, for reuse across runs.
func (l *Link) Reset() {
	l.busyUntil = 0
	l.bytes = 0
	l.transfers = 0
	l.busy = 0
}
