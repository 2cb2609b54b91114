package traffic

import (
	"ndpbridge/internal/sim"
	"ndpbridge/internal/stats"
)

// winState is one degradation-curve window's accumulator. The latency
// histogram is lazily allocated: most windows of an underloaded run see few
// completions, and a nil hist reports p99 = 0.
type winState struct {
	start     sim.Cycles
	offered   uint64
	completed uint64
	shed      uint64
	lat       *LatHist
}

// Source is the open-loop traffic generator plus its admission state. It is
// pure model state driven by the core runtime: GenerateUpTo moves due
// arrivals into the bounded admission queue (shedding per policy), Pop
// drains admitted requests for injection, Complete records end-to-end
// latencies. Every observable — the request stream, the shed counters, the
// percentile report — is a pure function of (Spec, recsPerShard).
type Source struct {
	spec Spec //ndplint:nosnap config constant from construction
	arr  *arrivals
	q    *admitQueue

	// pending is the generated-but-not-yet-offered head of the arrival
	// stream (the pump schedules its wake-up from pending.Arrive).
	pending    Request
	hasPending bool
	exhausted  bool // arrival stream fully generated

	offered   uint64
	admitted  uint64
	completed uint64
	inflight  uint64 // admitted (injected) − completed

	lat     LatHist
	windows []*winState

	// work is the monotone admission-progress counter: every offer, shed,
	// pop, and completion bumps it. The core watchdog folds it into its
	// progress signal so a saturated interval that (correctly) sheds every
	// arrival is not mistaken for a stall.
	work uint64
}

// NewSource builds a source for sp. recsPerShard is the serving layout's
// records per shard (the key stream draws a record index per request).
func NewSource(sp Spec, recsPerShard uint32) (*Source, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s := &Source{spec: sp, arr: newArrivals(sp, recsPerShard), q: newAdmitQueue(sp)}
	s.pending, s.hasPending = s.arr.next()
	s.exhausted = !s.hasPending
	return s, nil
}

// Spec returns the source's configuration.
func (s *Source) Spec() Spec { return s.spec }

// NextArrival returns the cycle of the next ungenerated-or-unoffered
// arrival. ok=false means the arrival stream is exhausted.
func (s *Source) NextArrival() (sim.Cycles, bool) {
	if !s.hasPending {
		return 0, false
	}
	return s.pending.Arrive, true
}

// GenerateUpTo offers every arrival due at or before now to the admission
// queue, shedding per policy when it is full.
func (s *Source) GenerateUpTo(now sim.Cycles) {
	for s.hasPending && s.pending.Arrive <= now {
		s.offered++
		s.work++
		w := s.window(s.pending.Arrive)
		if w != nil {
			w.offered++
		}
		if shed := s.q.offer(s.pending); shed != 0 {
			s.work += shed
			if w != nil {
				w.shed += shed
			}
		}
		s.pending, s.hasPending = s.arr.next()
	}
	if !s.hasPending {
		s.exhausted = true
	}
}

// Pop removes the next admissible request (deadline policy may shed stale
// heads first). ok=false means the queue is empty (possibly emptied by
// shedding).
func (s *Source) Pop(now sim.Cycles) (Request, bool) {
	r, shed, ok := s.q.pop(now)
	if shed != 0 {
		s.work += shed
		if w := s.window(now); w != nil {
			w.shed += shed
		}
	}
	if ok {
		s.admitted++
		s.inflight++
		s.work++
	}
	return r, ok
}

// Complete records one request's end-to-end latency: arrive is its offered
// cycle, end its handler-completion cycle. Warm-up arrivals count toward
// completion totals but not the percentile report.
func (s *Source) Complete(arrive, end sim.Cycles) {
	s.completed++
	if s.inflight > 0 {
		s.inflight--
	}
	s.work++
	lat := uint64(0)
	if end > arrive {
		lat = end - arrive
	}
	if w := s.window(end); w != nil {
		w.completed++
		if arrive >= sim.Cycles(s.spec.Warmup) {
			if w.lat == nil {
				w.lat = &LatHist{}
			}
			w.lat.Observe(lat)
		}
	}
	if arrive >= sim.Cycles(s.spec.Warmup) {
		s.lat.Observe(lat)
	}
}

// QueueLen returns the admission-queue depth.
func (s *Source) QueueLen() int { return s.q.len() }

// InFlight returns admitted-but-uncompleted requests (the MaxInFlight
// credit pool's usage).
func (s *Source) InFlight() uint64 { return s.inflight }

// Done reports whether no serving work remains: arrivals exhausted and the
// admission queue empty. In-fabric requests are the runtime's accounting.
func (s *Source) Done() bool { return s.exhausted && s.q.len() == 0 }

// Work returns the monotone admission-progress counter.
func (s *Source) Work() uint64 { return s.work }

// Shed returns the shed counters.
func (s *Source) Shed() ShedStats { return s.q.shed }

// window returns the accumulator covering cycle c, growing the slice as
// simulated time advances. Nil when windowed accounting is off.
func (s *Source) window(c sim.Cycles) *winState {
	if s.spec.Window == 0 {
		return nil
	}
	idx := int(uint64(c) / s.spec.Window)
	for len(s.windows) <= idx {
		s.windows = append(s.windows, &winState{start: sim.Cycles(uint64(len(s.windows)) * s.spec.Window)})
	}
	return s.windows[idx]
}

// Report folds the source into the run's SLO report. makespan is the run's
// final cycle (for the goodput/offered rate denominators).
func (s *Source) Report(makespan uint64) *stats.Serving {
	sh := s.q.shed
	v := &stats.Serving{
		Offered:      s.offered,
		Admitted:     s.admitted,
		Completed:    s.completed,
		ShedNewest:   sh.Newest,
		ShedOldest:   sh.Oldest,
		ShedDeadline: sh.Deadline,
		P50:          s.lat.Quantile(0.50),
		P90:          s.lat.Quantile(0.90),
		P99:          s.lat.Quantile(0.99),
		P999:         s.lat.Quantile(0.999),
		MaxLat:       s.lat.Max(),
		SLOTarget:    s.spec.SLOP99,
	}
	v.SLOMet = v.P99 <= v.SLOTarget && s.lat.Count() > 0
	if makespan > 0 {
		v.GoodputKC = 1000 * float64(s.completed) / float64(makespan)
		v.OfferedKC = 1000 * float64(s.offered) / float64(makespan)
	}
	for _, w := range s.windows {
		sw := stats.ServingWindow{
			Start:     uint64(w.start),
			Offered:   w.offered,
			Completed: w.completed,
			Shed:      w.shed,
		}
		if w.lat != nil {
			sw.P99 = w.lat.Quantile(0.99)
		}
		v.Windows = append(v.Windows, sw)
	}
	return v
}
