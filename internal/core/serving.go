package core

import (
	"fmt"

	"ndpbridge/internal/metrics"
	"ndpbridge/internal/sim"
	"ndpbridge/internal/task"
	"ndpbridge/internal/trace"
	"ndpbridge/internal/traffic"
)

// This file wires the open-loop serving layer (internal/traffic) into the
// bulk-synchronous runtime. A closed-loop app seeds a fixed batch per epoch
// and can never overload the fabric; the serving path instead injects
// requests on the traffic source's cycle schedule, applies admission
// control and shedding at the injection point, and takes bulk-sync barriers
// only at paced quiet points so checkpointing and the audit keep working
// without per-request barrier churn.

// Serving request layout, kvstore-style: records per shard and their size,
// plus the handler's lookup cost in cycles.
const (
	serveRecsPerShard = 64
	serveRecordBytes  = 256
	serveLookupCost   = 120
)

// servingState holds the serving-mode wiring hanging off a System.
type servingState struct {
	src *traffic.Source
	fn  task.FuncID

	shardStride uint64 // record bytes per shard
	shardsPer   uint64 // shards mapped to each unit
	pollEvery   sim.Cycles

	pumpArmed bool
	mLat      *metrics.Histogram
}

// AttachTraffic switches the system to open-loop serving mode: requests
// arrive from src instead of a per-epoch seeder. Attach before Run and run
// the system with ServingApp. Closed-loop behaviour is untouched when this
// is never called.
func (s *System) AttachTraffic(src *traffic.Source) {
	s.serve = &servingState{src: src, pollEvery: 16}
}

// ServingSource returns the attached traffic source (nil in closed-loop
// runs).
func (s *System) ServingSource() *traffic.Source {
	if s.serve == nil {
		return nil
	}
	return s.serve.src
}

// ServingApp is the open-loop serving application: a kvstore-style GET over
// the traffic source's Zipfian keyspace. Run it on a system that has a
// source attached via AttachTraffic.
type ServingApp struct{}

// Name identifies serving runs; results and checkpoints carry the traffic
// spec separately (Spec.Label).
func (ServingApp) Name() string { return "serve" }

// Prepare lays the shard table out across units, registers the GET handler,
// and arms the arrival pump.
func (ServingApp) Prepare(s *System) error {
	sv := s.serve
	if sv == nil {
		return fmt.Errorf("core: ServingApp needs AttachTraffic before Run")
	}
	sp := sv.src.Spec()
	units := uint64(s.Units())
	sv.shardsPer = (sp.Shards + units - 1) / units
	sv.shardStride = serveRecsPerShard * serveRecordBytes
	if need := sv.shardsPer * sv.shardStride; need > s.DataBytesPerUnit() {
		return fmt.Errorf("core: serving layout needs %d bytes/unit, have %d (reduce shards)",
			need, s.DataBytesPerUnit())
	}
	sv.fn = s.Register("serve.get", func(ctx task.Ctx, t task.Task) {
		ctx.Read(t.Addr, serveRecordBytes)
		ctx.Compute(serveLookupCost)
		end := ctx.Now() + serveLookupCost
		if c, ok := ctx.(task.EndCtx); ok {
			end = c.Cursor()
		}
		arrive := sim.Cycles(t.Args[0])
		sv.src.Complete(arrive, end)
		if end > arrive {
			sv.mLat.Observe(end - arrive)
		}
	})
	if s.met != nil {
		sv.mLat = s.met.Histogram("serve_latency_cycles")
		s.met.Gauge("admit_queue_len", func() uint64 { return uint64(sv.src.QueueLen()) })
		s.met.Gauge("serve_inflight", func() uint64 { return sv.src.InFlight() })
		s.met.Gauge("serve_shed_total", func() uint64 { return sv.src.Shed().Total() })
	}
	// Arm the pump at the first arrival (events scheduled before Run simply
	// wait in the engine).
	if at, ok := sv.src.NextArrival(); ok {
		sv.pumpArmed = true
		s.eng.At(at, s.servePump)
	}
	return nil
}

// SeedEpoch seeds nothing: work arrives from the pump. Returning true keeps
// the runtime alive while the source still has arrivals or queued requests;
// termination is decided at the barrier by servingAdvance.
func (ServingApp) SeedEpoch(s *System, ts uint32) bool {
	return !s.serve.src.Done()
}

// servePump is the arrival-pump event: it offers every due arrival to the
// admission queue (shedding per policy), drains admitted requests into the
// fabric while credits allow, and re-arms itself for the next arrival — or
// a near-term poll while requests remain queued behind backpressure.
func (s *System) servePump() {
	sv := s.serve
	sv.pumpArmed = false
	now := s.eng.Now()
	before := sv.src.Work()
	sv.src.GenerateUpTo(now)
	s.drainAdmissions()
	// Admission activity is forward progress: a saturated interval that
	// sheds every arrival must not look like a stall to the watchdog.
	s.progress += sv.src.Work() - before
	s.armPump()
	if sv.src.Done() {
		// Every arrival has been offered and the queue is drained; if the
		// fabric is empty too this ends the run (no TaskDone will fire
		// when everything was shed).
		s.checkAdvance()
	}
}

// armPump schedules the next pump firing: at the next arrival, or a
// poll-interval retry while the admission queue is backed up behind
// credits. Idempotent; no-op once the source is fully drained.
func (s *System) armPump() {
	sv := s.serve
	if sv.pumpArmed {
		return
	}
	now := s.eng.Now()
	at, ok := sv.src.NextArrival()
	if sv.src.QueueLen() > 0 {
		retry := now + sv.pollEvery
		if !ok || retry < at {
			at = retry
		}
		ok = true
	}
	if !ok {
		return
	}
	if at <= now {
		at = now + 1
	}
	sv.pumpArmed = true
	s.eng.At(at, s.servePump)
}

// drainAdmissions injects queued requests until the queue empties or
// admission credits run out.
func (s *System) drainAdmissions() {
	sv := s.serve
	now := s.eng.Now()
	for sv.src.QueueLen() > 0 && s.creditsOK() {
		r, ok := sv.src.Pop(now)
		if !ok {
			break
		}
		s.injectRequest(r)
	}
}

// creditsOK reports whether the admission point may inject: the in-flight
// request credit pool has room and the bridge fabric's buffered bytes are
// under the occupancy threshold.
func (s *System) creditsOK() bool {
	sp := s.serve.src.Spec()
	if sp.MaxInFlight > 0 && s.serve.src.InFlight() >= uint64(sp.MaxInFlight) {
		return false
	}
	if sp.CreditBytes > 0 && s.fabricBacklog() > sp.CreditBytes {
		return false
	}
	return true
}

// fabricBacklog sums the bridge layer's buffered bytes (backup, up-pending,
// scatter backlog) — the occupancy signal fed back to admission. Zero for
// designs without bridges.
func (s *System) fabricBacklog() uint64 {
	var n uint64
	for _, b := range s.bridges {
		n += b.BackupBytes() + b.UpPending() + b.ScatterBacklog()
	}
	return n
}

// injectRequest seeds one admitted request at its shard's home unit (or the
// host executor in design H) and kicks the target so mid-run injection
// starts immediately.
func (s *System) injectRequest(r traffic.Request) {
	sv := s.serve
	addr := s.serveAddr(r)
	t := task.New(sv.fn, s.epoch, addr, serveLookupCost, uint64(r.Arrive))
	s.Seed(t)
	if s.exec != nil {
		s.exec.Kick()
		return
	}
	s.units[s.amap.Home(addr)].Kick()
}

// serveAddr maps a request's (shard, record) key to its physical address:
// shards round-robin across units, records laid out contiguously per shard.
func (s *System) serveAddr(r traffic.Request) uint64 {
	sv := s.serve
	shard := uint64(r.Shard)
	unit := shard % uint64(s.Units())
	slot := shard / uint64(s.Units())
	return s.UnitBase(int(unit)) + slot*sv.shardStride + uint64(r.Rec%serveRecsPerShard)*serveRecordBytes
}

// servingAdvance is the serving-mode barrier policy, entered by
// checkAdvance whenever the fabric fully drains. It ends the run once the
// source is exhausted, and otherwise takes a paced bulk-sync barrier — only
// after the spec's quiet-epoch length — so epochHook consumers
// (checkpoints, audit) run without a barrier per request.
func (s *System) servingAdvance() {
	sv := s.serve
	now := s.eng.Now()
	// Credits are definitionally free with the fabric empty; drain anything
	// still queued before deciding the run is over.
	if sv.src.QueueLen() > 0 {
		before := sv.src.Work()
		s.drainAdmissions()
		s.progress += sv.src.Work() - before
		if s.outstanding[s.epoch] != 0 || s.inflight != 0 {
			return
		}
	}
	if sv.src.Done() {
		delete(s.outstanding, s.epoch)
		if s.epochHook != nil {
			s.epochHook(s.epoch)
		}
		s.mEpoch.Observe(now - s.epochStart)
		s.done = true
		s.eng.Stop()
		return
	}
	barrier := sim.Cycles(sv.src.Spec().Barrier)
	if barrier == 0 || now-s.epochStart < barrier {
		return // idle gap between requests; the pump keeps the run alive
	}
	delete(s.outstanding, s.epoch)
	if s.epochHook != nil {
		s.epochHook(s.epoch)
	}
	s.mEpoch.Observe(now - s.epochStart)
	s.epochStart = now
	next := s.epoch + 1
	s.rec.Record(trace.KindEpoch, -1, uint64(now), uint64(now), fmt.Sprintf("epoch %d", next))
	s.rec.EpochMark(next, uint64(now))
	s.epoch = next
}
