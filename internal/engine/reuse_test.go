package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// directBatchBody is the /v1/batch body of specs as the API promises it:
// encodeIndented of each scenario's direct Build()+Analyze() result.
func directBatchBody(t *testing.T, specs []*spec.Spec) []byte {
	t.Helper()
	results := make([]*Result, len(specs))
	for i, s := range specs {
		results[i] = analyzeDirect(t, s)
	}
	body, err := encodeIndented(batchResponse{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// directNetworkBody is the /v1/network body of s, computed the same way.
func directNetworkBody(t *testing.T, s *spec.Spec) []byte {
	t.Helper()
	body, err := encodeIndented(analyzeDirect(t, s))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFailsweepBatchBodyBytes: a failure-sweep /v1/batch body, whose
// columns reuse memo entries (measures and encoded members) from each
// other and from an earlier /v1/network solve of the intact network, is
// byte for byte the indented encoding of the direct analyses.
func TestFailsweepBatchBodyBytes(t *testing.T) {
	networks := memoNetworks(t)
	if testing.Short() {
		networks = networks[:2]
	}
	for _, s := range networks {
		eng := New(Config{})
		h := NewHandler(eng, 30*time.Second)
		if got := serve(t, h, "/v1/network", map[string]any{"scenario": s}); !bytes.Equal(got, directNetworkBody(t, s)) {
			t.Fatal("/v1/network body differs from the direct analysis")
		}
		sweep := failSweep(s)
		got := serve(t, h, "/v1/batch", map[string]any{"scenarios": sweep})
		if !bytes.Equal(got, directBatchBody(t, sweep)) {
			t.Errorf("failsweep of %d: /v1/batch body differs from the direct analyses", len(sweep))
		}
		if eng.MetricsSnapshot().KernelCacheHits == 0 {
			t.Error("the sweep never hit the path-result memo")
		}
	}
}

// TestMixedFdownSweepBodyBytes: in a sweep whose columns alternate between
// two downlink frames, a path solved once serves both, and the columns
// whose frame differs from the measuring one re-measure it: every body is
// still the direct analysis, byte for byte.
func TestMixedFdownSweepBodyBytes(t *testing.T) {
	for _, s := range memoNetworks(t)[:3] {
		sweep := failSweep(s)
		for i := 1; i < len(sweep); i += 2 {
			sweep[i].Fdown = 7
		}
		eng := New(Config{})
		h := NewHandler(eng, 30*time.Second)
		got := serve(t, h, "/v1/batch", map[string]any{"scenarios": sweep})
		if !bytes.Equal(got, directBatchBody(t, sweep)) {
			t.Errorf("mixed-Fdown sweep: /v1/batch body differs from the direct analyses")
		}
		// The intact network under the other frame hits every path in the
		// memo and re-measures it.
		intact := *s
		intact.Fdown = 7
		hits := eng.MetricsSnapshot().KernelCacheHits
		if got := serve(t, h, "/v1/network", map[string]any{"scenario": &intact}); !bytes.Equal(got, directNetworkBody(t, &intact)) {
			t.Error("intact network under Fdown 7: /v1/network body differs from the direct analysis")
		}
		if eng.MetricsSnapshot().KernelCacheHits == hits {
			t.Error("the intact network missed the memo")
		}
	}
}

// renamed returns s with every node name prefixed: the same topology,
// schedule and link processes, so the same path keys, under different
// source and route names.
func renamed(s *spec.Spec, prefix string) *spec.Spec {
	c := *s
	name := func(n string) string { return prefix + n }
	c.Nodes = append([]spec.Node(nil), s.Nodes...)
	for i := range c.Nodes {
		c.Nodes[i].Name = name(c.Nodes[i].Name)
	}
	c.Links = append([]spec.Link(nil), s.Links...)
	for i := range c.Links {
		c.Links[i].A, c.Links[i].B = name(c.Links[i].A), name(c.Links[i].B)
	}
	c.Schedule.Slots = append([]spec.Transmission(nil), s.Schedule.Slots...)
	for i := range c.Schedule.Slots {
		tr := &c.Schedule.Slots[i]
		tr.From, tr.To, tr.Source = name(tr.From), name(tr.To), name(tr.Source)
	}
	c.Schedule.Priority = nil
	for _, p := range s.Schedule.Priority {
		c.Schedule.Priority = append(c.Schedule.Priority, name(p))
	}
	c.Sources = nil
	for _, src := range s.Sources {
		c.Sources = append(c.Sources, name(src))
	}
	return &c
}

// explicitTypical is TypicalSpec with its shortest-first schedule written
// out slot by slot, so the schedule no longer depends on node ids: hop h
// of each source's route runs from route[h] to route[h+1] in the source's
// slot h.
func explicitTypical(t *testing.T) *spec.Spec {
	t.Helper()
	s := spec.TypicalSpec()
	built, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	name := func(id topology.NodeID) string {
		n, err := built.Net.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		return n.Name
	}
	s.Schedule = spec.Schedule{Fup: built.Schedule.Fup()}
	for _, src := range built.Analyzer.Sources() {
		route, _ := built.Analyzer.Route(src)
		nodes := route.Nodes()
		for h, slot := range built.Schedule.SlotsForSource(src) {
			s.Schedule.Slots = append(s.Schedule.Slots, spec.Transmission{
				Slot: slot, From: name(nodes[h]), To: name(nodes[h+1]), Source: name(src),
			})
		}
	}
	slices.SortFunc(s.Schedule.Slots, func(a, b spec.Transmission) int { return a.Slot - b.Slot })
	return s
}

// TestExplicitTypicalSchedule pins explicitTypical to the frame it wrote
// when it read the schedule slot by slot: eta_a over Fup = 20.
func TestExplicitTypicalSchedule(t *testing.T) {
	tx := func(slot int, from, to, source string) spec.Transmission {
		return spec.Transmission{Slot: slot, From: from, To: to, Source: source}
	}
	want := spec.Schedule{Fup: 20, Slots: []spec.Transmission{
		tx(1, "n1", "G", "n1"), tx(2, "n2", "G", "n2"), tx(3, "n3", "G", "n3"),
		tx(4, "n4", "n1", "n4"), tx(5, "n1", "G", "n4"), tx(6, "n5", "n1", "n5"),
		tx(7, "n1", "G", "n5"), tx(8, "n6", "n2", "n6"), tx(9, "n2", "G", "n6"),
		tx(10, "n7", "n3", "n7"), tx(11, "n3", "G", "n7"), tx(12, "n8", "n3", "n8"),
		tx(13, "n3", "G", "n8"), tx(14, "n9", "n6", "n9"), tx(15, "n6", "n2", "n9"),
		tx(16, "n2", "G", "n9"), tx(17, "n10", "n7", "n10"), tx(18, "n7", "n3", "n10"),
		tx(19, "n3", "G", "n10"),
	}}
	got := explicitTypical(t).Schedule
	if got.Fup != want.Fup || !slices.Equal(got.Slots, want.Slots) {
		t.Errorf("explicit typical schedule = %+v, want %+v", got, want)
	}
}

// TestRenamedNetworkSharesEntries: two networks that differ only in node
// names share every path key; the second is answered from the first's
// memo entries and still carries its own source and route names. The
// explicitly scheduled typical network is also listed with its field
// devices in reverse order, so every source's node id differs from the
// one that measured its entry.
func TestRenamedNetworkSharesEntries(t *testing.T) {
	reversed := renamed(explicitTypical(t), "site-")
	slices.Reverse(reversed.Nodes[1:])
	pairs := [][2]*spec.Spec{{explicitTypical(t), reversed}}
	for _, s := range memoNetworks(t)[:3] {
		pairs = append(pairs, [2]*spec.Spec{s, renamed(s, "site-")})
	}
	for _, pair := range pairs {
		s, other := pair[0], pair[1]
		eng := New(Config{})
		h := NewHandler(eng, 30*time.Second)
		serve(t, h, "/v1/network", map[string]any{"scenario": s})
		before := eng.MetricsSnapshot()
		got := serve(t, h, "/v1/network", map[string]any{"scenario": other})
		after := eng.MetricsSnapshot()
		if after.KernelCacheMisses != before.KernelCacheMisses || after.KernelCacheHits == before.KernelCacheHits {
			t.Errorf("renamed network: memo misses %d -> %d, hits %d -> %d; want hits only",
				before.KernelCacheMisses, after.KernelCacheMisses, before.KernelCacheHits, after.KernelCacheHits)
		}
		if !bytes.Equal(got, directNetworkBody(t, other)) {
			t.Error("renamed network: /v1/network body differs from the direct analysis")
		}
		if !bytes.Contains(got, []byte(`"site-`)) {
			t.Error("renamed network: body does not name its own nodes")
		}
	}
}

// TestNaNMemoEntryIs500: a memo entry whose measures hold a NaN stores no
// encoded members, so a scenario that reuses it answers with the
// encoder's 500 on /v1/network and /v1/batch, as a measured NaN would,
// and each counts as an engine error.
func TestNaNMemoEntryIs500(t *testing.T) {
	eng := New(Config{})
	h := NewHandler(eng, 30*time.Second)
	serve(t, h, "/v1/network", map[string]any{"scenario": spec.TypicalSpec()})
	eng.memoMu.Lock()
	for _, le := range eng.memo.entries() {
		ent := le.val
		pa := ent.pa
		pa.ExpectedDelayMS = math.NaN()
		poisoned := newPathEntry(&pa, ent.fdown, []int{1})
		if poisoned.path.tail != nil {
			t.Error("an entry with a NaN measure stored encoded members")
		}
		eng.memo.add(le.key, poisoned)
	}
	eng.memoMu.Unlock()

	// The failed link's paths are solved afresh; every other path reuses
	// a poisoned entry.
	for path, body := range map[string]any{
		"/v1/network": map[string]any{"scenario": failureSpec(t, 0, 20)},
		"/v1/batch":   map[string]any{"scenarios": []*spec.Spec{failureSpec(t, 5, 25)}},
	} {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "NaN") {
			t.Errorf("%s: status %d, body %q; want a 500 naming NaN", path, rec.Code, rec.Body)
		}
	}
	// An answer the server cannot give is an engine error.
	if n := eng.MetricsSnapshot().Errors; n != 2 {
		t.Errorf("errors = %d after two unencodable answers, want 2", n)
	}
}

// TestConcurrentSweepsShareEntries: concurrent failure sweeps of
// overlapping networks on one engine, run under -race in CI, publish and
// reuse memo entries across goroutines, and every body is the direct
// analysis byte for byte.
func TestConcurrentSweepsShareEntries(t *testing.T) {
	networks := memoNetworks(t)[:3]
	want := make([][]byte, len(networks))
	for i, s := range networks {
		want[i] = directBatchBody(t, failSweep(s))
	}
	h := NewHandler(New(Config{Workers: 2}), 30*time.Second)
	const goroutines = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(networks))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range networks {
				i := (g + k) % len(networks)
				b, err := json.Marshal(map[string]any{"scenarios": failSweep(networks[i])})
				if err != nil {
					errs <- err.Error()
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(b)))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
					errs <- "network " + networks[i].Nodes[1].Name + ": sweep body differs from the direct analyses"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
