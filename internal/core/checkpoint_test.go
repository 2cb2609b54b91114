package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/config"
	"ndpbridge/internal/task"
)

// epochWave runs several bulk-sync epochs, each seeding a wave of tasks that
// hop between units — enough barriers for checkpoints to trigger mid-run.
type epochWave struct {
	epochs int
	fn     task.FuncID
	done   int
}

func (w *epochWave) Name() string { return "epochwave" }

func (w *epochWave) Prepare(s *System) error {
	w.fn = s.Register("wave.hop", func(ctx task.Ctx, t task.Task) {
		w.done++
		ctx.Read(t.Addr, 128)
		ctx.Compute(20)
		if hop := t.Args[0]; hop > 0 {
			next := (ctx.Unit() + 3) % s.Units()
			ctx.Enqueue(task.New(w.fn, t.TS, s.UnitBase(next)+256, 30, hop-1))
		}
	})
	return nil
}

func (w *epochWave) SeedEpoch(s *System, ts uint32) bool {
	if int(ts) >= w.epochs {
		return false
	}
	for u := 0; u < s.Units(); u += 2 {
		s.Seed(task.New(w.fn, ts, s.UnitBase(u)+256, 30, uint64(3+u%4)))
	}
	return true
}

func TestCheckpointWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	sys, err := New(testCfg(config.DesignO))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableCheckpoints(path, 1) // every barrier
	r1, err := sys.Run(&epochWave{epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sys.CheckpointsWritten() == 0 {
		t.Fatal("no checkpoints written")
	}

	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.App != "epochwave" {
		t.Errorf("app %q, want epochwave", ck.App)
	}
	var cfg config.Config
	if err := json.Unmarshal(ck.CfgJSON, &cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, testCfg(config.DesignO)) {
		t.Error("config did not round-trip through the checkpoint")
	}
	if ck.Digest == 0 || ck.Cycle == 0 {
		t.Errorf("implausible marker: cycle %d digest %#x", ck.Cycle, ck.Digest)
	}

	// Replay-verify: a system rebuilt from the checkpoint's config must
	// reproduce the marker state exactly and then finish with the same
	// result.
	sys2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys2.VerifyResume(ck)
	r2, err := sys2.Run(&epochWave{epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sys2.ResumeVerified() {
		t.Fatal("replay never matched the checkpoint marker")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("resumed run result differs from original")
	}
}

func TestCheckpointInterruptAndResume(t *testing.T) {
	cfg := testCfg(config.DesignO)

	// Reference: uninterrupted run.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := ref.Run(&epochWave{epochs: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the request lands before the first barrier, so the
	// run snapshots there and stops like a SIGINT would.
	path := filepath.Join(t.TempDir(), "int.ckpt")
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableCheckpoints(path, 0)
	sys.RequestCheckpoint()
	if _, err := sys.Run(&epochWave{epochs: 5}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}

	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if int(ck.Epoch) >= 4 {
		t.Fatalf("checkpoint at epoch %d — run was not interrupted early", ck.Epoch)
	}

	// Resume past the marker to completion; the end state must be
	// indistinguishable from the uninterrupted run.
	sys2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys2.VerifyResume(ck)
	r2, err := sys2.Run(&epochWave{epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !sys2.ResumeVerified() {
		t.Fatal("replay never matched the checkpoint marker")
	}
	if !reflect.DeepEqual(r0, r2) {
		t.Error("resumed run result differs from uninterrupted run")
	}
}

func TestCheckpointCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	sys, err := New(testCfg(config.DesignB))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableCheckpoints(path, 1)
	if _, err := sys.Run(&epochWave{epochs: 2}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{8, len(data) / 2, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); err == nil {
			t.Errorf("corruption at offset %d accepted", off)
		}
	}
}

func TestCheckpointResumeDivergenceDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.ckpt")
	cfg := testCfg(config.DesignO)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableCheckpoints(path, 1)
	if _, err := sys.Run(&epochWave{epochs: 3}); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	// A different seed diverges the replay; the marker check must fail
	// rather than silently continuing from the wrong state.
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	sys2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sys2.VerifyResume(ck)
	if _, err := sys2.Run(&epochWave{epochs: 3}); err == nil {
		t.Fatal("diverged replay not detected")
	}
}

// TestCheckpointIsMarker: a checkpoint records identity, position and the
// state digest — one small meta section — not the state encoding itself.
func TestCheckpointIsMarker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	sys, err := New(testCfg(config.DesignO))
	if err != nil {
		t.Fatal(err)
	}
	sys.EnableCheckpoints(path, 1)
	var digests []uint64
	sys.addEpochHook(func(uint32) { digests = append(digests, sys.StateDigest()) })
	if _, err := sys.Run(&epochWave{epochs: 3}); err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Sections) != 1 || f.Sections[0].Name != sectionMeta {
		t.Fatalf("sections %v, want only %q", sectionNames(f), sectionMeta)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() >= 4096 {
		t.Errorf("checkpoint is %d bytes, want under 4 KiB", fi.Size())
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if last := digests[len(digests)-1]; ck.Digest != last {
		t.Errorf("recorded digest %#x, state digest at the last barrier %#x", ck.Digest, last)
	}
}

// TestCheckpointLegacyStateSection: files written before checkpoints became
// markers carry the full state encoding in a second "state" section. They
// must still load and resume verified.
func TestCheckpointLegacyStateSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	cfg := testCfg(config.DesignO)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var state []byte
	sys.addEpochHook(func(completed uint32) {
		if completed != 1 {
			return
		}
		f, err := sys.buildCheckpoint()
		if err != nil {
			t.Error(err)
			return
		}
		var e checkpoint.Enc
		sys.snapshotInto(&e)
		state = e.Data()
		f.Add("state", state)
		if err := checkpoint.WriteFile(path, f); err != nil {
			t.Error(err)
		}
	})
	r1, err := sys.Run(&epochWave{epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if state == nil {
		t.Fatal("no barrier at epoch 1")
	}

	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 1 || ck.Digest != checkpoint.Digest(state) {
		t.Fatalf("legacy marker: epoch %d digest %#x, want epoch 1 digest %#x", ck.Epoch, ck.Digest, checkpoint.Digest(state))
	}
	sys2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys2.VerifyResume(ck)
	r2, err := sys2.Run(&epochWave{epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sys2.ResumeVerified() {
		t.Fatal("replay never matched the legacy checkpoint marker")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("resumed run result differs from original")
	}
}

// TestCheckpointOlderConfigJSON: checkpoints written before the unused host
// knobs ClockGHz and LLCHitPct were deleted still carry them in their config
// JSON. Decoding ignores the two fields, so the rebuilt run has the same
// config and resumes verified.
func TestCheckpointOlderConfigJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "older.ckpt")
	cfg := testCfg(config.DesignO)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.addEpochHook(func(completed uint32) {
		if completed == 1 {
			if err := sys.WriteCheckpoint(path); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := sys.Run(&epochWave{epochs: 4}); err != nil {
		t.Fatal(err)
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	// Put the two fields back the way older builds wrote them.
	var top, host map[string]json.RawMessage
	if err := json.Unmarshal(ck.CfgJSON, &top); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(top["Host"], &host); err != nil {
		t.Fatal(err)
	}
	host["ClockGHz"] = json.RawMessage("2.6")
	host["LLCHitPct"] = json.RawMessage("0.35")
	if top["Host"], err = json.Marshal(host); err != nil {
		t.Fatal(err)
	}
	if ck.CfgJSON, err = json.Marshal(top); err != nil {
		t.Fatal(err)
	}

	var cfg2 config.Config
	if err := json.Unmarshal(ck.CfgJSON, &cfg2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg2, cfg) {
		t.Fatalf("older config JSON decodes to %+v, want %+v", cfg2, cfg)
	}
	sys2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sys2.VerifyResume(ck)
	if _, err := sys2.Run(&epochWave{epochs: 4}); err != nil {
		t.Fatal(err)
	}
	if !sys2.ResumeVerified() {
		t.Fatal("replay never matched the checkpoint marker")
	}
}

func sectionNames(f *checkpoint.File) []string {
	var names []string
	for _, s := range f.Sections {
		names = append(names, s.Name)
	}
	return names
}
