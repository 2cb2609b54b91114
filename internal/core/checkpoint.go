package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/fault"
	"ndpbridge/internal/sim"
)

// Checkpointing model. The event queue holds closures and cannot be
// serialized, so snapshots are taken only at the bulk-sync barrier — the one
// point where the fabric is provably drained (no outstanding tasks of the
// epoch, no in-flight messages, empty retransmit windows) and the live state
// reduces to plain data: counters, queues, metadata tables, RNG positions.
//
// A checkpoint therefore records (a) everything needed to rebuild the run
// (config JSON, app name, fault plan + seed) and (b) the marker: the
// completed epoch, the engine position (cycle, event seq, processed count),
// and a digest over the full component state. Resume is deterministic
// replay-with-verification: the run is rebuilt and re-executed, and at the
// marker barrier the live state is compared against the checkpoint — a
// mismatch (version skew, non-determinism, corruption that survived the
// checksums) fails loudly instead of continuing from a wrong state.

// ErrInterrupted is returned by Run when a requested checkpoint was written
// at the next barrier and the run stopped early on purpose.
var ErrInterrupted = errors.New("core: run interrupted, checkpoint written")

// Section and metadata field layout of a checkpoint file.
const (
	sectionMeta  = "meta"
	sectionState = "state"
)

// Checkpoint is the decoded content of a checkpoint file.
type Checkpoint struct {
	App       string
	CfgJSON   []byte
	PlanJSON  []byte // empty = no fault plan
	FaultSeed uint64
	Epoch     uint32 // last completed epoch at snapshot time
	Cycle     uint64
	Seq       uint64
	Processed uint64
	Digest    uint64 // checkpoint.Digest over the state section
	State     []byte
}

// SnapshotState encodes the full component state: engine position, bulk-sync
// accounting, and every unit, bridge, and fault-injector boundary. Call at a
// barrier; elsewhere transient buffers make the encoding position-dependent.
func (s *System) SnapshotState() []byte {
	var e checkpoint.Enc
	s.snapshotInto(&e)
	return e.Data()
}

// snapshotInto encodes the full component state into e (see SnapshotState).
func (s *System) snapshotInto(e *checkpoint.Enc) {
	st := s.eng.SnapState()
	e.U64(st.Now)
	e.U64(st.Seq)
	e.U64(st.Processed)

	e.U32(s.epoch)
	e.U64(s.inflight)
	epochs := make([]uint32, 0, len(s.outstanding))
	for ts := range s.outstanding {
		epochs = append(epochs, ts)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	e.U32(uint32(len(epochs)))
	for _, ts := range epochs {
		e.U32(ts)
		e.U64(s.outstanding[ts])
	}
	e.U64(s.taskID)
	e.U64(s.tasksSpawnedTotal)
	e.U64(s.tasksDoneTotal)
	e.U64(s.msgsStagedTotal)
	e.U64(s.msgsDeliveredTotal)
	e.U64(s.progress)
	e.U64(s.fMsgsLost)
	e.U64(s.fTasksRespawned)
	e.U64(s.fBlocksRecovered)
	ids := make([]uint64, 0, len(s.respawned))
	for id := range s.respawned {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U64(id)
	}
	e.U64(s.rng.State())

	e.U32(uint32(len(s.units)))
	for _, u := range s.units {
		u.SnapshotTo(e)
	}
	e.U32(uint32(len(s.bridges)))
	for _, b := range s.bridges {
		b.SnapshotTo(e)
	}
	e.Bool(s.l2 != nil)
	if s.l2 != nil {
		s.l2.SnapshotTo(e)
	}
	s.inj.SnapshotTo(e)
	// Serving state rides along only in serving mode, so closed-loop
	// snapshots and digests stay byte-identical.
	if s.serve != nil {
		s.serve.src.SnapshotTo(e)
	}
}

// StateDigest returns the FNV-64 digest of the full component state. The
// encode buffer is kept on the System and reused: the auditor digests the
// state repeatedly and the snapshots run to megabytes at full scale.
func (s *System) StateDigest() uint64 {
	e := checkpoint.NewEnc(s.digestBuf)
	s.snapshotInto(e)
	s.digestBuf = e.Data()
	return checkpoint.Digest(s.digestBuf)
}

// buildCheckpoint assembles the on-disk file for the current barrier.
func (s *System) buildCheckpoint() (*checkpoint.File, error) {
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return nil, fmt.Errorf("core: encode config: %w", err)
	}
	var planJSON []byte
	if s.injPlan != nil {
		planJSON, err = json.Marshal(s.injPlan)
		if err != nil {
			return nil, fmt.Errorf("core: encode fault plan: %w", err)
		}
	}
	state := s.SnapshotState()
	st := s.eng.SnapState()

	name := s.app.Name()
	if s.ckptApp != "" {
		name = s.ckptApp
	}
	var m checkpoint.Enc
	m.Str(name)
	m.Bytes(cfgJSON)
	m.Bytes(planJSON)
	m.U64(s.injSeed)
	m.U32(s.epoch)
	m.U64(st.Now)
	m.U64(st.Seq)
	m.U64(st.Processed)
	m.U64(checkpoint.Digest(state))

	f := checkpoint.New()
	f.Add(sectionMeta, m.Data())
	f.Add(sectionState, state)
	return f, nil
}

// WriteCheckpoint writes a crash-consistent snapshot of the current barrier
// state to path. Callers must be at a bulk-sync barrier (the epoch hook).
func (s *System) WriteCheckpoint(path string) error {
	f, err := s.buildCheckpoint()
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(path, f)
}

// ReadCheckpoint loads and validates a checkpoint file. Corruption anywhere
// (header, either section, trailing bytes) is rejected by the checksums.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	f, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, err
	}
	meta, ok := f.Section(sectionMeta)
	if !ok {
		return nil, fmt.Errorf("core: checkpoint %s: missing %s section", path, sectionMeta)
	}
	state, ok := f.Section(sectionState)
	if !ok {
		return nil, fmt.Errorf("core: checkpoint %s: missing %s section", path, sectionState)
	}
	d := checkpoint.NewDec(meta)
	ck := &Checkpoint{
		App:       d.Str(),
		CfgJSON:   d.Bytes(),
		PlanJSON:  d.Bytes(),
		FaultSeed: d.U64(),
		Epoch:     d.U32(),
		Cycle:     d.U64(),
		Seq:       d.U64(),
		Processed: d.U64(),
		Digest:    d.U64(),
		State:     state,
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	if got := checkpoint.Digest(state); got != ck.Digest {
		return nil, fmt.Errorf("core: checkpoint %s: state digest %#x does not match recorded %#x", path, got, ck.Digest)
	}
	return ck, nil
}

// Plan decodes the checkpoint's fault plan, or nil when the run had none.
func (ck *Checkpoint) Plan() (*fault.Plan, error) {
	if len(ck.PlanJSON) == 0 {
		return nil, nil
	}
	return fault.Parse(ck.PlanJSON)
}

// addEpochHook appends fn to the barrier hook chain.
func (s *System) addEpochHook(fn func(completed uint32)) {
	prev := s.epochHook
	if prev == nil {
		s.epochHook = fn
		return
	}
	s.epochHook = func(c uint32) {
		prev(c)
		fn(c)
	}
}

// EnableCheckpoints arranges for a snapshot of the run to be written to path
// at the first bulk-sync barrier after every `every` cycles (0 = only on
// request). The file is replaced atomically, so a crash mid-write leaves the
// previous snapshot intact.
func (s *System) EnableCheckpoints(path string, every sim.Cycles) {
	s.ckptPath = path
	s.ckptEvery = every
	s.ckptNext = every
	s.addEpochHook(func(uint32) {
		now := s.eng.Now()
		requested := s.ckptReq.Load()
		if !requested && (s.ckptEvery == 0 || now < s.ckptNext) {
			return
		}
		if err := s.WriteCheckpoint(s.ckptPath); err != nil {
			s.ckptErr = err
			s.eng.Stop()
			return
		}
		s.ckptWritten++
		if s.ckptEvery != 0 {
			s.ckptNext = now + s.ckptEvery
		}
		if requested {
			s.interrupted = true
			s.eng.Stop()
		}
	})
}

// SetCheckpointApp overrides the application label recorded in checkpoint
// metadata (default: the app's Name). CLIs encode workload sizing in it so
// resume rebuilds the identical application.
func (s *System) SetCheckpointApp(label string) { s.ckptApp = label }

// RequestCheckpoint asks the run to write a checkpoint at the next barrier
// and stop. Safe to call from another goroutine (e.g. a signal handler);
// Run then returns ErrInterrupted.
func (s *System) RequestCheckpoint() { s.ckptReq.Store(true) }

// CheckpointsWritten reports how many snapshots the run has written.
func (s *System) CheckpointsWritten() int { return s.ckptWritten }

// VerifyResume arms replay verification against ck: when the run reaches the
// checkpoint's marker barrier, the engine position and the state digest must
// match the snapshot exactly; any divergence stops the run with a descriptive
// error from Run. The caller must have rebuilt the system from the
// checkpoint's config, app, and fault plan.
func (s *System) VerifyResume(ck *Checkpoint) {
	s.resumeCk = ck
	s.addEpochHook(func(completed uint32) {
		if s.resumeVerified || completed != ck.Epoch {
			return
		}
		st := s.eng.SnapState()
		if st.Now != ck.Cycle || st.Seq != ck.Seq || st.Processed != ck.Processed {
			s.resumeErr = fmt.Errorf("core: resume replay diverged at epoch %d: cycle %d/seq %d/processed %d, checkpoint has %d/%d/%d",
				completed, st.Now, st.Seq, st.Processed, ck.Cycle, ck.Seq, ck.Processed)
			s.eng.Stop()
			return
		}
		if got := s.StateDigest(); got != ck.Digest {
			s.resumeErr = fmt.Errorf("core: resume replay diverged at epoch %d: state digest %#x, checkpoint has %#x",
				completed, got, ck.Digest)
			s.eng.Stop()
			return
		}
		s.resumeVerified = true
	})
}

// ResumeVerified reports whether the replay reached and matched the
// checkpoint marker.
func (s *System) ResumeVerified() bool { return s.resumeVerified }
