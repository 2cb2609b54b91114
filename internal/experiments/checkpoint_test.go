package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ndpbridge/internal/config"
)

// withCheckpointDir routes the campaign cache to a temp dir for one test.
func withCheckpointDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	SetCheckpointDir(dir)
	t.Cleanup(func() {
		SetCheckpointDir("")
		ResetCounters()
	})
	ResetCounters()
	return dir
}

func TestCampaignCacheResumeByteIdentical(t *testing.T) {
	dir := withCheckpointDir(t)
	apps := []string{"ll", "tree"}
	designs := []config.Design{config.DesignC, config.DesignO}

	// First pass, sequential: everything simulated, everything persisted.
	SetJobs(1)
	defer SetJobs(0)
	r1, err := Grid(Small, apps, designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CacheHits() != 0 {
		t.Fatalf("cold cache served %d hits", CacheHits())
	}
	files, err := filepath.Glob(filepath.Join(dir, "run-*.ckpt"))
	if err != nil || len(files) != len(r1) {
		t.Fatalf("%d cache files for %d cells (%v)", len(files), len(r1), err)
	}

	// Resume pass, parallel: the whole grid must come from disk and match
	// the original byte for byte regardless of worker count.
	ResetCounters()
	SetJobs(8)
	r2, err := Grid(Small, apps, designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(CacheHits()) != len(r1) {
		t.Fatalf("warm cache served %d hits, want %d", CacheHits(), len(r1))
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("resumed grid differs from original")
	}
}

func TestCampaignCachePartialResume(t *testing.T) {
	withCheckpointDir(t)
	SetJobs(1)
	defer SetJobs(0)
	designs := []config.Design{config.DesignO}

	// A "killed" campaign that only finished one app…
	if _, err := Grid(Small, []string{"ll"}, designs, nil); err != nil {
		t.Fatal(err)
	}
	// …resumes: the finished cell is served from disk, the rest simulate.
	ResetCounters()
	r, err := Grid(Small, []string{"ll", "ht"}, designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CacheHits() != 1 {
		t.Fatalf("cache hits %d, want 1", CacheHits())
	}
	if len(r) != 2 || r[0].App != "ll" || r[1].App != "ht" {
		t.Fatalf("unexpected grid shape: %+v", r)
	}
}

func TestCampaignCacheCorruptionRerun(t *testing.T) {
	dir := withCheckpointDir(t)
	SetJobs(1)
	defer SetJobs(0)
	designs := []config.Design{config.DesignB}

	r1, err := Grid(Small, []string{"tree"}, designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "run-*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("%d cache files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The checksum rejects the corrupt file; the cell re-simulates to the
	// same result and the file is healed.
	ResetCounters()
	r2, err := Grid(Small, []string{"tree"}, designs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CacheHits() != 0 {
		t.Fatal("corrupt cache file served a hit")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("re-simulated result differs")
	}
	ResetCounters()
	if _, err := Grid(Small, []string{"tree"}, designs, nil); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != 1 {
		t.Fatal("healed cache file not served")
	}
}

func TestCampaignCacheBypassedWithMetrics(t *testing.T) {
	withCheckpointDir(t)
	SetJobs(1)
	defer SetJobs(0)
	designs := []config.Design{config.DesignO}

	if _, err := Grid(Small, []string{"ll"}, designs, nil); err != nil {
		t.Fatal(err)
	}
	ResetCounters()
	EnableMetrics()
	defer TakeMetrics()
	if _, err := Grid(Small, []string{"ll"}, designs, nil); err != nil {
		t.Fatal(err)
	}
	if CacheHits() != 0 {
		t.Fatal("cache served a hit while metrics collection was on")
	}
}

func TestCampaignCacheBypassedWithAudit(t *testing.T) {
	withCheckpointDir(t)
	SetJobs(1)
	defer SetJobs(0)
	designs := []config.Design{config.DesignO}

	if _, err := Grid(Small, []string{"ll"}, designs, nil); err != nil {
		t.Fatal(err)
	}
	ResetCounters()
	EnableAudit(512)
	defer EnableAudit(0)
	if _, err := Grid(Small, []string{"ll"}, designs, nil); err != nil {
		t.Fatal(err)
	}
	if n := CacheHits(); n != 0 {
		t.Fatalf("cache served %d hit(s) while the auditor was on", n)
	}
}

func TestCampaignAuditAttach(t *testing.T) {
	EnableAudit(512)
	defer EnableAudit(0)
	SetJobs(1)
	defer SetJobs(0)
	if _, err := Grid(Small, []string{"ll"}, []config.Design{config.DesignO}, nil); err != nil {
		t.Fatalf("audited campaign cell failed: %v", err)
	}
}
