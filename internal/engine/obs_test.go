package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wirelesshart/internal/gen"
	"wirelesshart/internal/obs"
	"wirelesshart/internal/spec"
)

// TestMetricsPromEndpoint checks the Prometheus exposition: after one
// solve and one cache hit the text format must carry TYPE lines, the
// counters, and a real latency histogram whose count matches the solve.
func TestMetricsPromEndpoint(t *testing.T) {
	srv, _ := newTestAPI(t)
	for i := 0; i < 2; i++ {
		resp := postJSON(t, srv.URL+"/v1/network", map[string]any{"scenario": spec.TypicalSpec()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text format", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE whart_engine_solves_total counter",
		"whart_engine_solves_total 1",
		"whart_engine_cache_hits_total 1",
		"# TYPE whart_engine_solve_duration_seconds histogram",
		`whart_engine_solve_duration_seconds_bucket{le="+Inf"} 1`,
		"whart_engine_solve_duration_seconds_count 1",
		"# TYPE whart_engine_cache_entries gauge",
		"whart_engine_cache_entries 1",
		"whart_engine_struct_cache_entries",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestDebugTracesEndpoint drives the acceptance scenario: a cold solve
// must trace a structure-cache miss, and a second scenario differing only
// in its failure window must trace structure-cache hits; both traces show
// per-stage timings.
func TestDebugTracesEndpoint(t *testing.T) {
	srv, _ := newTestAPI(t)
	for _, win := range [][2]int{{0, 20}, {5, 25}} {
		resp := postJSON(t, srv.URL+"/v1/network", map[string]any{"scenario": failureSpec(t, win[0], win[1])})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("window %v: status %d, want 200", win, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body struct {
		Total  uint64          `json:"total"`
		Traces []obs.TraceView `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Total != 2 || len(body.Traces) != 2 {
		t.Fatalf("want 2 solve traces, got total=%d len=%d", body.Total, len(body.Traces))
	}
	// Newest first: Traces[1] is the cold solve, Traces[0] the warm one.
	cold, warm := body.Traces[1], body.Traces[0]
	for _, tr := range []obs.TraceView{cold, warm} {
		if tr.Name != "solve" || tr.Attr("key") == "" {
			t.Fatalf("trace = %+v, want solve with a key attr", tr)
		}
		for _, stage := range []string{"canonicalize", "queue", "build", "analyze", "structure", "bind", "solve", "measures"} {
			if _, ok := tr.Span(stage); !ok {
				t.Errorf("stage %q missing from trace %q", stage, tr.Attr("key"))
			}
		}
		if s, _ := tr.Span("analyze"); s.DurUS <= 0 {
			t.Errorf("analyze stage has no timing: %+v", s)
		}
	}
	structOutcomes := func(tr obs.TraceView) map[string]int {
		got := map[string]int{}
		for _, s := range tr.Spans {
			if s.Name == "structure" {
				got[s.Attr("cache")]++
			}
		}
		return got
	}
	if got := structOutcomes(cold); got["miss"] == 0 || got["hit"] != 0 {
		t.Errorf("cold solve structure outcomes = %v, want only misses", got)
	}
	if got := structOutcomes(warm); got["hit"] == 0 || got["miss"] != 0 {
		t.Errorf("warm solve structure outcomes = %v, want shared-cache hits", got)
	}
	if cold.Attr("key") == warm.Attr("key") {
		t.Error("distinct scenarios share a canonical key")
	}
}

// TestTraceLoggerReceivesSolves checks the slog sink: with a TraceLogger
// configured, each solve emits one structured record with stage timings.
func TestTraceLoggerReceivesSolves(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), nil))
	eng := New(Config{TraceLogger: logger, TraceCapacity: 4})
	if _, err := eng.Evaluate(context.Background(), spec.TypicalSpec()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(out)), &rec); err != nil {
		t.Fatalf("trace log is not one JSON record: %v (%q)", err, out)
	}
	if rec["msg"] != "trace" || rec["name"] != "solve" {
		t.Errorf("record = %v", rec)
	}
	if _, ok := rec["span.analyze.durUS"]; !ok {
		t.Errorf("per-stage timing missing from %v", rec)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestEvaluateConcurrentTracing exercises tracing under concurrency: many
// distinct scenarios solving at once must each record a complete trace
// (bounded by the ring) without racing.
func TestEvaluateConcurrentTracing(t *testing.T) {
	eng := New(Config{Workers: 4, TraceCapacity: 8})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := spec.TypicalSpec()
			s.ReportingInterval = 2 + i // distinct scenarios: no result-cache collapsing
			if _, err := eng.Evaluate(context.Background(), s); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := eng.Traces().Total(); got != 12 {
		t.Errorf("recorded %d traces, want 12", got)
	}
	snap := eng.Traces().Snapshot()
	if len(snap) != 8 {
		t.Fatalf("ring holds %d traces, want capacity 8", len(snap))
	}
	for _, tr := range snap {
		if tr.Error != "" {
			t.Errorf("trace %q errored: %s", tr.Attr("key"), tr.Error)
		}
		if _, ok := tr.Span("solve"); !ok {
			t.Errorf("trace %q has no solve span", tr.Attr("key"))
		}
	}
}

// TestBuildSpanCountsBases: a batch builds each intact network once,
// and its build span reports how many it built — one for a single
// network's failure sweep, also when its columns spell the network four
// ways, two for the sweeps of two networks interleaved, and sixteen for
// two rounds over sixteen networks. Every body is byte for byte the
// per-scenario answers of fresh engines.
func TestBuildSpanCountsBases(t *testing.T) {
	var nets, rounds, spelled []*spec.Spec
	for i := 0; i < 16; i++ {
		g, err := gen.Generate(16, i, gen.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, g.Spec)
	}
	for col := 0; col < 2; col++ {
		for _, s := range nets {
			rounds = append(rounds, failSweep(s)[col])
		}
	}
	for i, c := range failSweep(nets[0]) {
		spelled = append(spelled, spellings(t, c)[i%4])
	}
	for _, tc := range []struct {
		name  string
		batch []*spec.Spec
		want  string
	}{
		{"single-network sweep", failSweep(nets[0]), "1"},
		{"interleaved sweeps", interleavedSweeps(t), "2"},
		{"two rounds over 16 networks", rounds, "16"},
		{"one network's sweep spelled four ways", spelled, "1"},
	} {
		eng := New(Config{})
		body := serve(t, NewHandler(eng, 30*time.Second), "/v1/batch", map[string]any{"scenarios": tc.batch})
		if !bytes.Equal(body, freshBatchBody(t, tc.batch)) {
			t.Errorf("%s: /v1/batch body differs from the per-scenario answers", tc.name)
		}
		snap := eng.Traces().Snapshot()
		if len(snap) != 1 {
			t.Fatalf("%s: %d traces, want 1", tc.name, len(snap))
		}
		build, ok := snap[0].Span("build")
		if !ok {
			t.Fatalf("%s: no build span", tc.name)
		}
		if got := build.Attr("bases"); got != tc.want {
			t.Errorf("%s: build span bases=%q, want %q", tc.name, got, tc.want)
		}
	}
}
