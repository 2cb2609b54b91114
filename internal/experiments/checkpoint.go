package experiments

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync/atomic"

	"ndpbridge/internal/checkpoint"
	"ndpbridge/internal/config"
	"ndpbridge/internal/stats"
)

// Campaign checkpointing. A campaign is a bag of independent (app, config)
// simulations, so its natural resume granularity is the run: every completed
// simulation's result is written to a content-addressed cache file, and a
// resumed campaign replays instantly through the finished cells before
// simulating the rest. The cache key hashes the full configuration, so any
// change to the config, the app, the scale, or the cache format itself
// misses cleanly instead of resurrecting a stale result.
//
// Files use the checkpoint container, so a crash mid-write (the write is
// atomic anyway) or later on-disk corruption is rejected by the checksums
// and the cell is simply re-simulated.
//
// The cache stores final results, not metric streams, traces or audits, so it
// is bypassed while metrics collection, flow tracing or the auditor is on — a
// cache hit cannot reproduce histograms or spans, and checks nothing.

// cacheFormat versions the key material; bump on any layout change.
const cacheFormat = 1

const (
	cacheSectionKey    = "key"
	cacheSectionResult = "result"
)

// ckptDir holds the campaign checkpoint directory ("" = disabled). Stored
// atomically because the worker pool reads it concurrently.
var ckptDir atomic.Value // string

// SetCheckpointDir enables run-granular campaign checkpointing in dir
// (every completed simulation is persisted, and future identical runs are
// served from disk). An empty dir disables it.
func SetCheckpointDir(dir string) { ckptDir.Store(dir) }

// CheckpointDir returns the active campaign checkpoint directory, or "".
func CheckpointDir() string {
	if v := ckptDir.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// auditEvery, when nonzero, attaches the invariant auditor to every
// simulation the campaign runs, checking every N cycles.
var auditEvery atomic.Uint64

// EnableAudit attaches the invariant auditor to every campaign simulation,
// running its weak checks every `every` cycles (0 disables). Violations fail
// the owning cell's run.
func EnableAudit(every uint64) { auditEvery.Store(every) }

// AuditEvery returns the configured audit period, or 0 when off.
func AuditEvery() uint64 { return auditEvery.Load() }

// ctrCacheHits counts cells served from the campaign checkpoint cache.
var ctrCacheHits atomic.Uint64

// CacheHits returns how many simulations were served from the campaign
// checkpoint cache since the last ResetCounters.
func CacheHits() uint64 { return ctrCacheHits.Load() }

// cacheKeyMaterial renders the full identity of one simulation cell.
func cacheKeyMaterial(cfg config.Config, appName string, sc Scale) ([]byte, error) {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: encode config: %w", err)
	}
	var e checkpoint.Enc
	e.U32(cacheFormat)
	e.Str(appName)
	e.U32(uint32(sc))
	e.Bytes(cfgJSON)
	return e.Data(), nil
}

// cachePath returns the content-addressed file for one cell.
func cachePath(dir string, key []byte) string {
	return filepath.Join(dir, fmt.Sprintf("run-%016x.ckpt", checkpoint.Digest(key)))
}

// loadCachedRun returns the stored result for the cell, or nil on any kind
// of miss (absent, corrupt, key collision, undecodable).
func loadCachedRun(dir string, key []byte) *stats.Result {
	f, err := checkpoint.ReadFile(cachePath(dir, key))
	if err != nil {
		return nil
	}
	stored, ok := f.Section(cacheSectionKey)
	if !ok || string(stored) != string(key) {
		return nil
	}
	data, ok := f.Section(cacheSectionResult)
	if !ok {
		return nil
	}
	var r stats.Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil
	}
	return &r
}

// saveCachedRun persists one completed cell. Errors are returned so the
// caller can surface a broken checkpoint directory instead of silently
// running without resume protection.
func saveCachedRun(dir string, key []byte, r *stats.Result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("experiments: encode result: %w", err)
	}
	f := checkpoint.New()
	f.Add(cacheSectionKey, key)
	f.Add(cacheSectionResult, data)
	return checkpoint.WriteFile(cachePath(dir, key), f)
}
