package engine

import (
	"encoding/json"
	"fmt"
	"io"

	"wirelesshart/internal/cluster"
)

// Snapshot-load states reported by SnapshotStatus and /readyz.
const (
	// SnapshotNone: no snapshot was restored into this engine.
	SnapshotNone = "none"
	// SnapshotLoaded: a snapshot restore succeeded.
	SnapshotLoaded = "loaded"
	// SnapshotFailed: a snapshot restore was attempted and rejected; the
	// engine is serving with a cold cache.
	SnapshotFailed = "failed"
)

// SnapshotStatus is the engine's snapshot-restore state, reported by
// /readyz so an operator (or a rollout controller) can tell a warm
// replica from one that just stampeded the solver pool.
type SnapshotStatus struct {
	State   string `json:"state"`
	Entries int    `json:"entries"`
	Error   string `json:"error,omitempty"`
}

// SnapshotStatus returns the engine's snapshot-restore state.
func (e *Engine) SnapshotStatus() SnapshotStatus {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	return e.snapshot
}

func (e *Engine) setSnapshotStatus(s SnapshotStatus) {
	e.snapMu.Lock()
	e.snapshot = s
	e.snapMu.Unlock()
}

// SaveSnapshot writes the scenario result cache to w in the versioned,
// checksummed cluster snapshot format, least-recently-used entries first,
// and returns how many entries it wrote. whart-server calls this on
// SIGTERM drain so the next start of the replica restores a warm cache
// instead of stampeding the solver pool.
func (e *Engine) SaveSnapshot(w io.Writer) (int, error) {
	e.mu.Lock()
	cached := e.cache.entries()
	e.mu.Unlock()
	entries := make([]cluster.SnapshotEntry, 0, len(cached))
	for _, en := range cached {
		b, err := json.Marshal(en.val)
		if err != nil {
			return 0, fmt.Errorf("engine: snapshot entry %s: %w", en.key, err)
		}
		entries = append(entries, cluster.SnapshotEntry{Key: en.key, Value: b})
	}
	if err := cluster.WriteSnapshot(w, entries); err != nil {
		return 0, err
	}
	e.metrics.snapshotSaves.Add(1)
	e.metrics.snapshotSavedEntries.Set(float64(len(entries)))
	return len(entries), nil
}

// LoadSnapshot restores a snapshot written by SaveSnapshot into the
// result cache and returns how many entries it admitted. The snapshot is
// fully validated — checksum, version, per-entry decode, and each
// result's embedded key against its entry key — before anything touches
// the cache, so a rejected snapshot leaves the engine exactly as it was
// (the server starts cold, it does not crash). The outcome, either way,
// is recorded for /readyz.
func (e *Engine) LoadSnapshot(r io.Reader) (n int, err error) {
	defer func() {
		if err != nil {
			e.setSnapshotStatus(SnapshotStatus{State: SnapshotFailed, Error: err.Error()})
			return
		}
		e.setSnapshotStatus(SnapshotStatus{State: SnapshotLoaded, Entries: n})
		e.metrics.snapshotLoads.Add(1)
		e.metrics.snapshotLoadedEntries.Set(float64(n))
	}()
	entries, err := cluster.ReadSnapshot(r)
	if err != nil {
		return 0, err
	}
	results := make([]*Result, len(entries))
	for i, en := range entries {
		res, err := decodeResult(en.Value)
		if err != nil {
			return 0, fmt.Errorf("%w: entry %d (%s): %v", cluster.ErrSnapshotCorrupt, i, en.Key, err)
		}
		if res.Key != en.Key {
			return 0, fmt.Errorf("%w: entry %d: result key %s under entry key %s",
				cluster.ErrSnapshotCorrupt, i, res.Key, en.Key)
		}
		results[i] = res
	}
	e.mu.Lock()
	for i, en := range entries {
		e.cache.add(en.Key, results[i])
	}
	e.mu.Unlock()
	return len(entries), nil
}
