package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wirelesshart"
	"wirelesshart/internal/spec"
)

func newTestAPI(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	eng := New(Config{})
	srv := httptest.NewServer(NewHandler(eng, 30*time.Second))
	t.Cleanup(srv.Close)
	return srv, eng
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestAPI(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	decodeBody(t, resp, &body)
	if body.Status != "ok" {
		t.Errorf("status %q, want ok", body.Status)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	srv, _ := newTestAPI(t)
	resp := postJSON(t, srv.URL+"/v1/evaluate", map[string]any{
		"scenario": spec.TypicalSpec(),
		"source":   "n10",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body evaluateResponse
	decodeBody(t, resp, &body)
	if body.Path.Source != "n10" || body.Path.Hops != 3 {
		t.Errorf("path = %s/%d hops, want n10/3", body.Path.Source, body.Path.Hops)
	}
	if body.Path.Reachability <= 0 || body.Path.Reachability >= 1 {
		t.Errorf("reachability %v out of (0,1)", body.Path.Reachability)
	}
	if body.Fup != 20 {
		t.Errorf("Fup = %d, want the paper's 20", body.Fup)
	}
	if body.Key == "" {
		t.Error("missing scenario key")
	}
}

func TestNetworkEndpointAndMetrics(t *testing.T) {
	srv, eng := newTestAPI(t)
	for i := 0; i < 2; i++ { // second call must hit the cache
		resp := postJSON(t, srv.URL+"/v1/network", map[string]any{"scenario": spec.TypicalSpec()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var body Result
		decodeBody(t, resp, &body)
		if len(body.Paths) != 10 {
			t.Fatalf("%d paths, want 10", len(body.Paths))
		}
		if body.Utilization <= 0 || body.OverallMeanDelayMS <= 0 {
			t.Errorf("implausible aggregates: U=%v E[Gamma]=%v", body.Utilization, body.OverallMeanDelayMS)
		}
	}
	if solves := eng.MetricsSnapshot().Solves; solves != 1 {
		t.Errorf("%d solves after 2 identical requests, want 1", solves)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Engine Snapshot `json:"engine"`
	}
	decodeBody(t, resp, &metrics)
	if metrics.Engine.Solves != 1 || metrics.Engine.CacheHits != 1 {
		t.Errorf("metrics solves=%d hits=%d, want 1/1", metrics.Engine.Solves, metrics.Engine.CacheHits)
	}
}

// TestEvaluateEndpointFailureInjection posts failure-injection scenarios:
// the response must match the direct core analysis, and a second scenario
// with a shifted failure window must surface a structure-cache hit in
// /metrics.
func TestEvaluateEndpointFailureInjection(t *testing.T) {
	srv, _ := newTestAPI(t)
	resp := postJSON(t, srv.URL+"/v1/evaluate", map[string]any{
		"scenario": failureSpec(t, 0, 20),
		"source":   "n10",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body evaluateResponse
	decodeBody(t, resp, &body)

	built, err := failureSpec(t, 0, 20).Build()
	if err != nil {
		t.Fatal(err)
	}
	na, err := built.Analyzer.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	found := false
	for _, pa := range na.Paths {
		node, err := built.Net.Node(pa.Source)
		if err != nil {
			t.Fatal(err)
		}
		if node.Name == "n10" {
			want, found = pa.Reachability, true
		}
	}
	if !found {
		t.Fatal("core analysis has no n10 path")
	}
	if !almostEqual(body.Path.Reachability, want, 1e-12) {
		t.Errorf("served R = %v, core R = %v", body.Path.Reachability, want)
	}

	resp = postJSON(t, srv.URL+"/v1/evaluate", map[string]any{
		"scenario": failureSpec(t, 5, 25),
		"source":   "n10",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second window: status %d, want 200", resp.StatusCode)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var metrics struct {
		Engine Snapshot `json:"engine"`
	}
	decodeBody(t, mresp, &metrics)
	if metrics.Engine.StructCacheHits == 0 {
		t.Error("shifted failure window recorded no structure-cache hit in /metrics")
	}
	if metrics.Engine.StructCacheLen == 0 {
		t.Error("structure cache length missing from /metrics")
	}
}

// TestPredictEndpointRanking pins /v1/predict to the routingadvisor
// example: same candidates, same ranking, same recommendation.
func TestPredictEndpointRanking(t *testing.T) {
	srv, _ := newTestAPI(t)
	resp := postJSON(t, srv.URL+"/v1/predict", map[string]any{
		"scenario": spec.TypicalSpec(),
		"candidates": []map[string]any{
			{"via": "n4", "ebN0": 7},
			{"via": "n1", "ebN0": 6},
			{"via": "n9", "ebN0": 12},
			{"via": "n3", "ebN0": 4},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body predictResponse
	decodeBody(t, resp, &body)

	// Recompute the advisor's ranking through the library.
	net, err := wirelesshart.Typical()
	if err != nil {
		t.Fatal(err)
	}
	var preds []*wirelesshart.Prediction
	for _, c := range []struct {
		via  string
		ebN0 float64
	}{{"n4", 7}, {"n1", 6}, {"n9", 12}, {"n3", 4}} {
		p, err := net.PredictAttachment(c.via, c.ebN0)
		if err != nil {
			t.Fatal(err)
		}
		preds = append(preds, p)
	}
	want := wirelesshart.RankPredictions(preds)
	if len(body.Predictions) != len(want) {
		t.Fatalf("%d predictions, want %d", len(body.Predictions), len(want))
	}
	for i := range want {
		if body.Predictions[i].Via != want[i].Via {
			t.Errorf("rank %d: %s, want %s", i, body.Predictions[i].Via, want[i].Via)
		}
	}
	if body.Recommended != want[0].Via {
		t.Errorf("recommended %s, want %s", body.Recommended, want[0].Via)
	}
}

func TestRequestValidation(t *testing.T) {
	srv, _ := newTestAPI(t)
	post := func(path, body string) *http.Response {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	typical, err := json.Marshal(spec.TypicalSpec())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed json", "/v1/network", "{", http.StatusBadRequest},
		{"unknown field", "/v1/network", `{"scenario": {"nodes": [], "bogus": 1}}`, http.StatusBadRequest},
		{"missing scenario", "/v1/network", `{}`, http.StatusBadRequest},
		{"empty scenario", "/v1/network", `{"scenario": {}}`, http.StatusBadRequest},
		{"missing source", "/v1/evaluate", `{"scenario": ` + string(typical) + `}`, http.StatusBadRequest},
		{"unknown source", "/v1/evaluate", `{"scenario": ` + string(typical) + `, "source": "ghost"}`, http.StatusBadRequest},
		{"trailing data", "/v1/evaluate",
			`{"scenario": ` + string(typical) + `, "source": "n10"} {"junk":true} garbage`, http.StatusBadRequest},
		{"missing candidates", "/v1/predict", `{"scenario": ` + string(typical) + `}`, http.StatusBadRequest},
		{"conflicting snr fields", "/v1/predict",
			`{"scenario": ` + string(typical) + `, "candidates": [{"via": "n4", "ebN0": 7, "ebN0s": [7]}]}`,
			http.StatusBadRequest},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			resp := post(tt.path, tt.body)
			if resp.StatusCode != tt.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tt.want)
			}
			var e errorResponse
			decodeBody(t, resp, &e)
			if e.Error == "" {
				t.Error("error body missing")
			}
		})
	}
	// A body written by json.Encoder ends in a newline; trailing
	// whitespace is not trailing data.
	if resp := post("/v1/evaluate", `{"scenario": `+string(typical)+`, "source": "n10"}`+"\n"); resp.StatusCode != http.StatusOK {
		t.Errorf("body with a trailing newline: status %d, want 200", resp.StatusCode)
	}
	for _, path := range []string{"/v1/evaluate", "/v1/network", "/v1/predict"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv, eng := newTestAPI(t)
	resp := postJSON(t, srv.URL+"/v1/batch", map[string]any{
		"scenarios": []*spec.Spec{spec.TypicalSpec(), failureSpec(t, 0, 20), spec.TypicalSpec()},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body batchResponse
	decodeBody(t, resp, &body)
	if len(body.Results) != 3 {
		t.Fatalf("%d results, want 3", len(body.Results))
	}
	if body.Results[0].Key != body.Results[2].Key {
		t.Error("duplicate sub-scenarios returned different keys")
	}
	if body.Results[0].Key == body.Results[1].Key {
		t.Error("distinct sub-scenarios returned the same key")
	}
	for i, r := range body.Results {
		if r.Utilization <= 0 || len(r.Paths) == 0 {
			t.Errorf("result %d looks empty: U=%v, %d paths", i, r.Utilization, len(r.Paths))
		}
	}
	snap := eng.MetricsSnapshot()
	if snap.BatchRequests != 1 || snap.BatchScenarios != 3 || snap.BatchDeduped != 1 || snap.BatchSolved != 2 {
		t.Errorf("batch metrics: %+v", snap)
	}

	// Validation: an empty scenario list is the client's mistake.
	resp = postJSON(t, srv.URL+"/v1/batch", map[string]any{"scenarios": []*spec.Spec{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/batch", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing scenarios: status %d, want 400", resp.StatusCode)
	}
}

// TestUnencodableResponseIs500: a value json cannot encode (NaN) is
// answered with a 500 and a JSON error, never a 200 with an empty body —
// and a cached result keeps answering the same 500.
func TestUnencodableResponseIs500(t *testing.T) {
	check := func(name string, write func(http.ResponseWriter)) {
		t.Helper()
		rec := httptest.NewRecorder()
		write(rec)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500 (body %q)", name, rec.Code, rec.Body)
		}
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "NaN") {
			t.Errorf("%s: body %q (%v), want a JSON error naming NaN", name, rec.Body, err)
		}
	}
	bad := &Result{Key: "k", OverallMeanDelayMS: math.NaN()}
	check("writeJSON", func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, bad) })
	for i := 0; i < 2; i++ {
		check("stored encoding", func(w http.ResponseWriter) {
			body, err := bad.encoding()
			writeEncoded(w, http.StatusOK, body, err)
		})
		if _, err := appendBatchBody(nil, []*Result{{Key: "ok"}, bad}); err == nil {
			t.Error("appendBatchBody encoded a NaN result")
		}
	}
}
