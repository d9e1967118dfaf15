package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"wirelesshart/internal/cluster"
	"wirelesshart/internal/spec"
)

// warmEngine solves n distinct scenarios so the result cache has content
// worth snapshotting, returning the solved results keyed by scenario key.
func warmEngine(t *testing.T, eng *Engine, n int) map[string]*Result {
	t.Helper()
	out := map[string]*Result{}
	for i := 0; i < n; i++ {
		s := spec.TypicalSpec()
		s.ReportingInterval = i + 1
		res, err := eng.Evaluate(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		out[res.Key] = res
	}
	return out
}

// TestSnapshotRoundTripWarmRestart is the tentpole property: save a warm
// cache, restore it into a fresh engine, and every previously cached
// scenario is answered identically with zero solver invocations.
func TestSnapshotRoundTripWarmRestart(t *testing.T) {
	eng := New(Config{})
	want := warmEngine(t, eng, 3)

	var buf bytes.Buffer
	n, err := eng.SaveSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("saved %d entries, want 3", n)
	}
	if snap := eng.MetricsSnapshot(); snap.SnapshotSaves != 1 || snap.SnapshotSavedEntries != 3 {
		t.Errorf("save metrics: saves=%d entries=%d", snap.SnapshotSaves, snap.SnapshotSavedEntries)
	}

	restarted := New(Config{})
	loaded, err := restarted.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 3 {
		t.Fatalf("loaded %d entries, want 3", loaded)
	}
	snap := restarted.MetricsSnapshot()
	if snap.CacheLen != eng.MetricsSnapshot().CacheLen {
		t.Errorf("restored cache occupancy %d, want %d", snap.CacheLen, eng.MetricsSnapshot().CacheLen)
	}
	if snap.SnapshotLoads != 1 || snap.SnapshotLoadedEntries != 3 {
		t.Errorf("load metrics: loads=%d entries=%d", snap.SnapshotLoads, snap.SnapshotLoadedEntries)
	}
	if st := restarted.SnapshotStatus(); st.State != SnapshotLoaded || st.Entries != 3 {
		t.Errorf("status = %+v, want loaded/3", st)
	}

	// Every warm scenario: identical bytes, zero solves.
	for i := 0; i < 3; i++ {
		s := spec.TypicalSpec()
		s.ReportingInterval = i + 1
		res, err := restarted.Evaluate(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(res)
		exp, _ := json.Marshal(want[res.Key])
		if !bytes.Equal(got, exp) {
			t.Errorf("scenario %d: restored result differs from the original", i)
		}
	}
	after := restarted.MetricsSnapshot()
	if after.Solves != 0 || after.CacheHits != 3 || after.CacheMisses != 0 {
		t.Errorf("restored engine: solves=%d hits=%d misses=%d, want 0/3/0",
			after.Solves, after.CacheHits, after.CacheMisses)
	}
}

// TestSnapshotPreservesRecencyOrder: after a restore into a smaller
// cache, the most recently used entries are the ones that survived.
func TestSnapshotPreservesRecencyOrder(t *testing.T) {
	eng := New(Config{})
	warmEngine(t, eng, 4)
	var buf bytes.Buffer
	if _, err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	small := New(Config{CacheSize: 2})
	if _, err := small.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := small.MetricsSnapshot().CacheLen; got != 2 {
		t.Fatalf("cache len %d, want 2", got)
	}
	// Intervals 3 and 4 were used last; they must be the survivors.
	for _, is := range []int{3, 4} {
		s := spec.TypicalSpec()
		s.ReportingInterval = is
		if _, err := small.Evaluate(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	if snap := small.MetricsSnapshot(); snap.Solves != 0 || snap.CacheHits != 2 {
		t.Errorf("recency order lost: solves=%d hits=%d, want 0/2", snap.Solves, snap.CacheHits)
	}
}

// TestSnapshotRejectedCleanly: corrupted and version-mismatched files
// leave the engine cold but working, with the failure visible in the
// status.
func TestSnapshotRejectedCleanly(t *testing.T) {
	eng := New(Config{})
	warmEngine(t, eng, 2)
	var buf bytes.Buffer
	if _, err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := []struct {
		name string
		data string
		want error
	}{
		{"corrupted payload", good[:len(good)-7] + "garbage", cluster.ErrSnapshotCorrupt},
		{"version mismatch", strings.Replace(good, `"version":1`, `"version":2`, 1), cluster.ErrSnapshotVersion},
		{"empty file", "", cluster.ErrSnapshotCorrupt},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			fresh := New(Config{})
			n, err := fresh.LoadSnapshot(strings.NewReader(tt.data))
			if !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
			if n != 0 || fresh.MetricsSnapshot().CacheLen != 0 {
				t.Errorf("rejected snapshot still populated the cache (n=%d len=%d)",
					n, fresh.MetricsSnapshot().CacheLen)
			}
			if st := fresh.SnapshotStatus(); st.State != SnapshotFailed || st.Error == "" {
				t.Errorf("status = %+v, want failed with an error", st)
			}
			// Cold but alive: the engine still solves.
			if _, err := fresh.Evaluate(context.Background(), spec.TypicalSpec()); err != nil {
				t.Errorf("engine broken after rejected snapshot: %v", err)
			}
		})
	}
}

// TestSnapshotRejectsKeyMismatch: an entry whose embedded result key
// disagrees with its entry key must not be admitted.
func TestSnapshotRejectsKeyMismatch(t *testing.T) {
	res := &Result{Key: "other", Utilization: 0.3}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cluster.WriteSnapshot(&buf, []cluster.SnapshotEntry{{Key: "mine", Value: b}}); err != nil {
		t.Fatal(err)
	}
	eng := New(Config{})
	if _, err := eng.LoadSnapshot(&buf); !errors.Is(err, cluster.ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
	if eng.MetricsSnapshot().CacheLen != 0 {
		t.Error("mismatched entry reached the cache")
	}
}

func TestSnapshotEmptyCache(t *testing.T) {
	eng := New(Config{})
	var buf bytes.Buffer
	n, err := eng.SaveSnapshot(&buf)
	if err != nil || n != 0 {
		t.Fatalf("empty save: n=%d err=%v", n, err)
	}
	fresh := New(Config{})
	if n, err := fresh.LoadSnapshot(&buf); err != nil || n != 0 {
		t.Fatalf("empty load: n=%d err=%v", n, err)
	}
	if st := fresh.SnapshotStatus(); st.State != SnapshotLoaded || st.Entries != 0 {
		t.Errorf("status = %+v", st)
	}
}

// TestSnapshotLoadMatchesUnmarshal: a snapshot saved from an engine warmed
// with TypicalSpec and generated networks restores, in its recency order,
// the very results that decoding each entry with json.Unmarshal gives.
func TestSnapshotLoadMatchesUnmarshal(t *testing.T) {
	eng := New(Config{})
	warmEngine(t, eng, 3)
	for _, s := range memoNetworks(t) {
		if _, err := eng.Evaluate(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	entries, err := cluster.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	if _, err := restored.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got := restored.cache.entries()
	if len(got) != len(entries) || len(got) < 10 {
		t.Fatalf("restored %d entries from a snapshot of %d", len(got), len(entries))
	}
	for i, en := range entries {
		want := &Result{}
		if err := json.Unmarshal(en.Value, want); err != nil {
			t.Fatal(err)
		}
		if got[i].key != en.Key || !reflect.DeepEqual(got[i].val, want) {
			t.Errorf("entry %d (%s): restored result differs from json.Unmarshal's", i, en.Key[:12])
		}
	}
}
