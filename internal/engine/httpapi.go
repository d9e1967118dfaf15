package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"wirelesshart/internal/spec"
)

// maxRequestBytes bounds a request body; scenario specs are small.
const maxRequestBytes = 1 << 20

// NewHandler returns the engine's HTTP API:
//
//	POST /v1/evaluate  {"scenario": <spec>, "source": "n10"}   one path's measures
//	POST /v1/network   {"scenario": <spec>}                    aggregate Gamma/U over all sources
//	POST /v1/batch     {"scenarios": [<spec>, ...]}            many scenarios, one batched solve
//	POST /v1/predict   {"scenario": <spec>, "candidates": [{"via": "n4", "ebN0": 7}, ...]}
//	POST /v1/peer/solve {"key": "<hex>", "scenario": <spec>}   peer protocol: always solves locally
//	GET  /healthz                                              liveness: the process accepts requests
//	GET  /readyz                                               readiness: ring membership + snapshot-load state
//	GET  /metrics                                              engine counters and latency quantiles (JSON)
//	GET  /metrics/prom                                         Prometheus text exposition
//	GET  /debug/traces                                         most recent solve traces with per-stage timings
//
// Every request is bounded by timeout (zero means no limit) and a 1 MiB
// body cap; scenario JSON is validated strictly (unknown fields rejected).
func NewHandler(e *Engine, timeout time.Duration) http.Handler {
	s := &apiServer{eng: e, timeout: timeout, started: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/readyz", s.readyz)
	mux.HandleFunc(PeerSolvePath, s.peerSolve)
	mux.HandleFunc("/metrics", s.metrics)
	mux.Handle("/metrics/prom", e.Registry().Handler())
	mux.Handle("/debug/traces", e.Traces().Handler())
	mux.HandleFunc("/v1/evaluate", s.evaluate)
	mux.HandleFunc("/v1/network", s.network)
	mux.HandleFunc("/v1/batch", s.batch)
	mux.HandleFunc("/v1/predict", s.predict)
	return mux
}

type apiServer struct {
	eng     *Engine
	timeout time.Duration
	started time.Time
}

type errorResponse struct {
	Error string `json:"error"`
}

// encodeIndented returns the API's response encoding of v: exactly what a
// json.Encoder with SetIndent("", "  ") writes, trailing newline included.
// Clients rely on this format byte for byte (DESIGN.md §7). Results and
// /v1/evaluate bodies are written by jsonWriter instead, which produces the
// same bytes; encodeIndented serves the small bodies and is the tests'
// oracle for the writer.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encoding returns r's response encoding, encoding it on the first call
// only; every later call, from any goroutine, returns the same bytes (or
// the same error). Callers must not modify the slice.
func (r *Result) encoding() ([]byte, error) {
	r.encodeOnce.Do(func() { r.encoded, r.encodeErr = r.encode() })
	return r.encoded, r.encodeErr
}

// writeJSON encodes v before committing the status, so a value that cannot
// be encoded is answered with a 500 instead of code and an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := encodeIndented(v)
	writeEncoded(w, code, body, err)
}

// writeEncoded answers code with an encoded body, or 500 when encoding it
// failed.
func writeEncoded(w http.ResponseWriter, code int, body []byte, err error) {
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// batchBody renders batchResponse{results} exactly as encodeIndented
// would, splicing in each result's stored encoding: nested two levels
// deep, every line of a result after its first gains four spaces. This is
// exact because encoded JSON strings never hold a raw newline, so every
// '\n' in an encoding is a line break. results is non-empty: the handler
// and EvaluateBatch reject an empty batch.
func batchBody(results []*Result) ([]byte, error) {
	const head, tail, indent = "{\n  \"results\": [\n", "  ]\n}\n", "    "
	encs := make([][]byte, len(results))
	size := len(head) + len(tail)
	for i, r := range results {
		b, err := r.encoding()
		if err != nil {
			return nil, err
		}
		encs[i] = b
		// b with every line indented, and a comma.
		size += len(b) + len(indent)*bytes.Count(b, []byte{'\n'}) + 1
	}
	body := make([]byte, 0, size)
	body = append(body, head...)
	for i, b := range encs {
		body = append(body, indent...)
		rest := b[:len(b)-1]
		for {
			j := bytes.IndexByte(rest, '\n')
			if j < 0 {
				break
			}
			body = append(body, rest[:j+1]...)
			body = append(body, indent...)
			rest = rest[j+1:]
		}
		body = append(body, rest...)
		if i < len(encs)-1 {
			body = append(body, ',')
		}
		body = append(body, '\n')
	}
	return append(body, tail...), nil
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeEngineErr maps engine errors onto HTTP statuses: scenario/query
// mistakes are the client's (400), exceeded deadlines are 504, the rest 500.
func writeEngineErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBadScenario):
		writeErr(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, "evaluation timed out")
	case errors.Is(err, context.Canceled):
		writeErr(w, 499, "request canceled") // nginx's client-closed-request
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

// decodeInto strictly parses the request body into v.
func (s *apiServer) decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := spec.DecodeStrict(r.Body, v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// requireMethod enforces the HTTP verb.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed, use %s", r.Method, method)
		return false
	}
	return true
}

func (s *apiServer) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// healthz is pure liveness: it answers as long as the process serves
// requests, and says nothing about cluster readiness — restarting a
// replica because its ring is degraded would only shrink the ring more.
func (s *apiServer) healthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.started).Seconds(),
	})
}

// readyz is readiness: it reports ring membership and the snapshot-load
// state so rollout tooling can route traffic to warm, ring-consistent
// replicas. A standalone engine (no ring) is ready by definition.
func (s *apiServer) readyz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	body := map[string]any{
		"ready":    true,
		"snapshot": s.eng.SnapshotStatus(),
	}
	if ring := s.eng.Ring(); ring != nil {
		body["ring"] = map[string]any{
			"self":         ring.Self().ID,
			"members":      ring.Members(),
			"virtualNodes": ring.VirtualNodes(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// peerSolve is the peer protocol's receiving side: it solves the posted
// scenario locally (never forwarding again) and rejects requests whose
// canonical key disagrees with the sender's, so skewed ring or
// canonicalization versions surface as errors instead of cache poison.
func (s *apiServer) peerSolve(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req peerSolveRequest
	if !s.decodeInto(w, r, &req) {
		return
	}
	if req.Scenario == nil {
		writeErr(w, http.StatusBadRequest, "missing scenario")
		return
	}
	s.eng.Metrics().peerServed.Add(1)
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := s.eng.EvaluatePeer(ctx, req.Scenario)
	if err != nil {
		writeEngineErr(w, err)
		return
	}
	if req.Key != "" && req.Key != res.Key {
		writeErr(w, http.StatusBadRequest, "scenario canonicalizes to %s here, not the requested %s", res.Key, req.Key)
		return
	}
	body, err := res.encoding()
	writeEncoded(w, http.StatusOK, body, err)
}

func (s *apiServer) metrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	writeJSON(w, http.StatusOK, map[string]any{
		"engine": s.eng.MetricsSnapshot(),
		"runtime": map[string]any{
			"goroutines":    runtime.NumGoroutine(),
			"heapAllocMB":   float64(mem.HeapAlloc) / (1 << 20),
			"numGC":         mem.NumGC,
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"uptimeSeconds": time.Since(s.started).Seconds(),
		},
	})
}

type evaluateRequest struct {
	Scenario *spec.Spec `json:"scenario"`
	Source   string     `json:"source"`
}

type evaluateResponse struct {
	Key      string     `json:"key"`
	Fup      int        `json:"fup"`
	Schedule string     `json:"schedule"`
	Path     PathResult `json:"path"`
}

func (s *apiServer) evaluate(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req evaluateRequest
	if !s.decodeInto(w, r, &req) {
		return
	}
	if req.Scenario == nil {
		writeErr(w, http.StatusBadRequest, "missing scenario")
		return
	}
	if req.Source == "" {
		writeErr(w, http.StatusBadRequest, "missing source; use /v1/network for all paths")
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := s.eng.Evaluate(ctx, req.Scenario)
	if err != nil {
		writeEngineErr(w, err)
		return
	}
	p, ok := res.Path(req.Source)
	if !ok {
		writeErr(w, http.StatusBadRequest, "node %q is not a reporting source with an uplink path", req.Source)
		return
	}
	resp := evaluateResponse{Key: res.Key, Fup: res.Fup, Schedule: res.Schedule, Path: p}
	body, err := resp.encode()
	writeEncoded(w, http.StatusOK, body, err)
}

type networkRequest struct {
	Scenario *spec.Spec `json:"scenario"`
}

func (s *apiServer) network(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req networkRequest
	if !s.decodeInto(w, r, &req) {
		return
	}
	if req.Scenario == nil {
		writeErr(w, http.StatusBadRequest, "missing scenario")
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, err := s.eng.Evaluate(ctx, req.Scenario)
	if err != nil {
		writeEngineErr(w, err)
		return
	}
	body, err := res.encoding()
	writeEncoded(w, http.StatusOK, body, err)
}

type batchRequest struct {
	Scenarios []*spec.Spec `json:"scenarios"`
}

type batchResponse struct {
	Results []*Result `json:"results"`
}

// batch evaluates many scenarios in one request: duplicates and cached
// sub-scenarios are served without solving, the residual misses are solved
// as one batch. Results come back in request order.
func (s *apiServer) batch(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req batchRequest
	if !s.decodeInto(w, r, &req) {
		return
	}
	if len(req.Scenarios) == 0 {
		writeErr(w, http.StatusBadRequest, "missing scenarios")
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	results, err := s.eng.EvaluateBatch(ctx, req.Scenarios)
	if err != nil {
		writeEngineErr(w, err)
		return
	}
	body, err := batchBody(results)
	writeEncoded(w, http.StatusOK, body, err)
}

// predictCandidate accepts either a single-hop "ebN0" or a multi-hop
// "ebN0s" peer path.
type predictCandidate struct {
	Via   string    `json:"via"`
	EbN0  *float64  `json:"ebN0,omitempty"`
	EbN0s []float64 `json:"ebN0s,omitempty"`
}

type predictRequest struct {
	Scenario   *spec.Spec         `json:"scenario"`
	Candidates []predictCandidate `json:"candidates"`
}

type predictResponse struct {
	Key         string        `json:"key"`
	Predictions []*Prediction `json:"predictions"`
	Recommended string        `json:"recommended"`
}

func (s *apiServer) predict(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req predictRequest
	if !s.decodeInto(w, r, &req) {
		return
	}
	if req.Scenario == nil {
		writeErr(w, http.StatusBadRequest, "missing scenario")
		return
	}
	if len(req.Candidates) == 0 {
		writeErr(w, http.StatusBadRequest, "missing candidates")
		return
	}
	cands := make([]Candidate, len(req.Candidates))
	for i, c := range req.Candidates {
		switch {
		case c.EbN0 != nil && len(c.EbN0s) > 0:
			writeErr(w, http.StatusBadRequest, "candidate %q sets both ebN0 and ebN0s", c.Via)
			return
		case c.EbN0 != nil:
			cands[i] = Candidate{Via: c.Via, EbN0s: []float64{*c.EbN0}}
		default:
			cands[i] = Candidate{Via: c.Via, EbN0s: c.EbN0s}
		}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	preds, err := s.eng.PredictRanked(ctx, req.Scenario, cands)
	if err != nil {
		writeEngineErr(w, err)
		return
	}
	key, err := Key(req.Scenario)
	if err != nil {
		writeEngineErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{Key: key, Predictions: preds, Recommended: preds[0].Via})
}
