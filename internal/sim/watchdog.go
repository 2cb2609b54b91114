package sim

// Watchdog detects deadlock and livelock in a fault-injected run: the model
// claims work remains pending but makes no forward progress over several
// consecutive observation periods. It polls from inside the event loop — its
// self-rescheduling keeps the event queue non-empty, so while a watchdog is
// armed the engine can never "drain and hang"; termination happens through
// the model's own completion Stop, and an unrecoverable stall surfaces as a
// trip instead of an infinite run.
//
// Recoverable faults must never trip it: the observation period should be
// set comfortably above the longest injected stall/delay plus the retry
// protocol's backoff cap, and progress is measured in completed tasks plus
// delivered messages, so even a run limping through retransmissions
// advances between polls.
type Watchdog struct {
	eng      *Engine
	period   Cycles
	maxMiss  int
	progress func() uint64 // monotonic forward-progress measure
	pending  func() bool   // does the model still claim outstanding work?
	onTrip   func()

	last    uint64
	strikes int
	tripped bool
	stopped bool
}

// NewWatchdog builds a watchdog polling every period cycles. progress must
// be monotonically non-decreasing (e.g. tasks done + messages delivered);
// pending reports whether the model still expects progress. After maxMiss
// consecutive polls with pending work and no progress, onTrip fires once.
func NewWatchdog(eng *Engine, period Cycles, maxMiss int, progress func() uint64, pending func() bool, onTrip func()) *Watchdog {
	if period == 0 {
		panic("sim: watchdog period must be positive")
	}
	if maxMiss <= 0 {
		maxMiss = 1
	}
	return &Watchdog{
		eng: eng, period: period, maxMiss: maxMiss,
		progress: progress, pending: pending, onTrip: onTrip,
	}
}

// Start arms the watchdog.
func (w *Watchdog) Start() {
	w.last = w.progress()
	w.eng.After(w.period, w.poll)
}

// Stop disarms the watchdog; the pending poll event becomes a no-op.
func (w *Watchdog) Stop() { w.stopped = true }

// Tripped reports whether the watchdog fired.
func (w *Watchdog) Tripped() bool { return w.tripped }

func (w *Watchdog) poll() {
	if w.stopped || w.tripped {
		return
	}
	cur := w.progress()
	switch {
	case !w.pending():
		// Nothing outstanding: the model is quiescing normally.
		w.strikes = 0
	case cur != w.last:
		w.strikes = 0
	default:
		w.strikes++
		if w.strikes >= w.maxMiss {
			w.tripped = true
			if w.onTrip != nil {
				w.onTrip()
			}
			return
		}
	}
	w.last = cur
	w.eng.After(w.period, w.poll)
}
