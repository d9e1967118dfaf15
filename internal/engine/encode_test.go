package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"wirelesshart/internal/spec"
)

// indented is the response format the API promises — json.Encoder with
// SetIndent("", "  "), trailing newline included — computed independently
// of the handler's stored encodings.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serve posts body to path on h and returns the recorded response after
// checking the status and the framing headers.
func serve(t *testing.T, h http.Handler, path string, body any) []byte {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", path, ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", path, cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

func evaluateAll(t *testing.T, eng *Engine, specs []*spec.Spec) []*Result {
	t.Helper()
	out := make([]*Result, len(specs))
	for i, s := range specs {
		res, err := eng.Evaluate(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// TestResponseBodiesMatchEncoder pins the response format: every
// /v1/network, /v1/peer/solve and /v1/batch body is byte for byte the
// indented encoding of the same value, whether the results come from the
// cache or a fresh solve.
func TestResponseBodiesMatchEncoder(t *testing.T) {
	eng := New(Config{})
	h := NewHandler(eng, 30*time.Second)
	specs := append(memoNetworks(t), failureSpec(t, 0, 20))

	// Half the scenarios are cached through /v1/network (first response
	// encodes, second writes the stored bytes) before the batch.
	half := len(specs) / 2
	for _, s := range specs[:half] {
		first := serve(t, h, "/v1/network", map[string]any{"scenario": s})
		second := serve(t, h, "/v1/network", map[string]any{"scenario": s})
		res := evaluateAll(t, eng, []*spec.Spec{s})[0]
		if want := indented(t, res); !bytes.Equal(first, want) || !bytes.Equal(second, want) {
			t.Fatalf("scenario %s: /v1/network body differs from the indented encoding", res.Key[:12])
		}
	}

	// A batch mixing cached and fresh entries, with duplicates.
	batch := append(append([]*spec.Spec{}, specs...), specs[0], specs[half], specs[len(specs)-1])
	got := serve(t, h, "/v1/batch", map[string]any{"scenarios": batch})
	results := evaluateAll(t, eng, batch)
	if want := indented(t, batchResponse{Results: results}); !bytes.Equal(got, want) {
		t.Errorf("/v1/batch body of %d differs from the indented encoding", len(batch))
	}

	// A batch of one, the peer protocol and the now-cached fresh results.
	for i, s := range specs {
		want := indented(t, results[i])
		if got := serve(t, h, "/v1/batch", map[string]any{"scenarios": []*spec.Spec{s}}); !bytes.Equal(got, indented(t, batchResponse{Results: results[i : i+1]})) {
			t.Errorf("scenario %d: batch-of-one body differs from the indented encoding", i)
		}
		if got := serve(t, h, PeerSolvePath, map[string]any{"key": results[i].Key, "scenario": s}); !bytes.Equal(got, want) {
			t.Errorf("scenario %d: /v1/peer/solve body differs from the indented encoding", i)
		}
		if got := serve(t, h, "/v1/network", map[string]any{"scenario": s}); !bytes.Equal(got, want) {
			t.Errorf("scenario %d: /v1/network body differs from the indented encoding", i)
		}
	}
}

// TestBatchBodyShapes covers the splice on results the engine never
// produces, whose slices are nil or hold zero values.
func TestBatchBodyShapes(t *testing.T) {
	typical := evaluateAll(t, New(Config{}), []*spec.Spec{spec.TypicalSpec()})[0]
	for name, results := range map[string][]*Result{
		"bare":       {{Key: "k"}},
		"bare+typed": {{Key: "k", Paths: []PathResult{{Source: "n1"}}}, typical},
	} {
		got, err := batchBody(results)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := indented(t, batchResponse{Results: results}); !bytes.Equal(got, want) {
			t.Errorf("%s: batchBody\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestRestoredResultBody: a result restored from a snapshot is served with
// the body its original engine sent.
func TestRestoredResultBody(t *testing.T) {
	eng := New(Config{})
	warmEngine(t, eng, 3)
	var snap bytes.Buffer
	if _, err := eng.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restarted := New(Config{})
	if _, err := restarted.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	h, hr := NewHandler(eng, 30*time.Second), NewHandler(restarted, 30*time.Second)
	for is := 1; is <= 3; is++ {
		s := spec.TypicalSpec()
		s.ReportingInterval = is
		body := map[string]any{"scenario": s}
		if want, got := serve(t, h, "/v1/network", body), serve(t, hr, "/v1/network", body); !bytes.Equal(got, want) {
			t.Errorf("Is=%d: restored body differs from the original", is)
		}
	}
	if solves := restarted.MetricsSnapshot().Solves; solves != 0 {
		t.Errorf("restored engine solved %d scenarios, want 0", solves)
	}
}

// TestForwardedResultBody: a replica serves a result it decoded from its
// peer with the owner's bytes.
func TestForwardedResultBody(t *testing.T) {
	engA, engB := twoReplicaCluster(t)
	s := scenarioOwnedBy(t, engB.Ring(), "a")
	body := map[string]any{"scenario": s}
	got := serve(t, NewHandler(engB, 30*time.Second), "/v1/network", body)
	if engB.MetricsSnapshot().PeerForwarded != 1 {
		t.Fatal("b did not forward the scenario to its owner")
	}
	want := serve(t, NewHandler(engA, 30*time.Second), "/v1/network", body)
	if !bytes.Equal(got, want) {
		t.Error("forwarded result body differs from the owner's")
	}
	key, err := Key(s)
	if err != nil {
		t.Fatal(err)
	}
	if peer := serve(t, NewHandler(engA, 30*time.Second), PeerSolvePath, map[string]any{"key": key, "scenario": s}); !bytes.Equal(peer, want) {
		t.Error("/v1/peer/solve body differs from the owner's /v1/network body")
	}

	// The stored bytes are the peer's: a forward through Evaluate, which
	// never encodes, leaves the owner's body on the cached result.
	_, engB = twoReplicaCluster(t)
	res, err := engB.Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if engB.MetricsSnapshot().PeerForwarded != 1 {
		t.Fatal("b did not forward the scenario to its owner")
	}
	if !bytes.Equal(res.encoded, want) {
		t.Error("the forwarded result does not hold the owner's body as its encoding")
	}
}

// TestCachedResultServedConcurrently: many goroutines serving one cached
// result through /v1/network and /v1/batch all get the expected body, and
// the result is encoded once — every encoding call returns the same
// backing array.
func TestCachedResultServedConcurrently(t *testing.T) {
	eng := New(Config{})
	h := NewHandler(eng, 30*time.Second)
	s := spec.TypicalSpec()
	res := evaluateAll(t, eng, []*spec.Spec{s})[0]
	type endpoint struct {
		path      string
		req, want []byte
	}
	var eps []endpoint
	for _, ep := range []struct {
		path      string
		req, resp any
	}{
		{"/v1/network", map[string]any{"scenario": s}, res},
		{"/v1/batch", map[string]any{"scenarios": []*spec.Spec{s, s}}, batchResponse{Results: []*Result{res, res}}},
	} {
		req, err := json.Marshal(ep.req)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, endpoint{ep.path, req, indented(t, ep.resp)})
	}

	const goroutines, perG = 16, 8
	bodies := make([][]byte, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ep := eps[i%len(eps)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(ep.req)))
				bodies[g*perG+i] = rec.Body.Bytes()
			}
		}(g)
	}
	wg.Wait()

	for i, b := range bodies {
		if ep := eps[i%perG%len(eps)]; !bytes.Equal(b, ep.want) {
			t.Fatalf("response %d from %s differs from the indented encoding", i, ep.path)
		}
	}
	first, err := res.encoding()
	if err != nil {
		t.Fatal(err)
	}
	again, _ := res.encoding()
	if &first[0] != &again[0] {
		t.Error("encoding returned a fresh slice: the result was encoded more than once")
	}
	if solves := eng.MetricsSnapshot().Solves; solves != 1 {
		t.Errorf("%d solves, want 1", solves)
	}
}
