package engine

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wirelesshart/internal/spec"
)

// indexedRequest is one request body of the body-index tests.
type indexedRequest struct{ path, body string }

// response is what a client sees of one answer.
type response struct {
	code        int
	contentType string
	body        string
}

func send(h http.Handler, req indexedRequest) response {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, strings.NewReader(req.body)))
	return response{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

// indexedRequests lists /v1/network and /v1/evaluate bodies over the key
// cases, the scenarios behind testdata/predict.golden and FuzzKey's seed
// specs: one network body per scenario and one evaluate body per node
// name, plus an evaluate body naming no node and one without a source.
func indexedRequests(t *testing.T) []indexedRequest {
	t.Helper()
	var docs []string
	marshal := func(s *spec.Spec) {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(b))
	}
	for _, c := range keyCases(t) {
		marshal(c.spec)
	}
	ghost := spec.TypicalSpec()
	ghost.Links = append(ghost.Links, spec.Link{A: "n1", B: "ghost"})
	marshal(ghost)
	badBER := spec.TypicalSpec()
	badBER.Links[2].BER = new(float64)
	*badBER.Links[2].BER = -1
	marshal(badBER)
	docs = append(docs, keySeedDocs...)

	var reqs []indexedRequest
	seen := map[string]bool{}
	for _, doc := range docs {
		if seen[doc] {
			continue // some cases marshal alike
		}
		seen[doc] = true
		reqs = append(reqs, indexedRequest{"/v1/network", `{"scenario": ` + doc + `}`})
		sources := []string{"ghost", ""}
		if s, err := spec.Parse(strings.NewReader(doc)); err == nil {
			for _, n := range s.Nodes {
				sources = append(sources, n.Name)
			}
		}
		for _, src := range sources {
			name, err := json.Marshal(src)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, indexedRequest{"/v1/evaluate", `{"scenario": ` + doc + `, "source": ` + string(name) + `}`})
		}
	}
	return reqs
}

// TestBodyIndexResendIsIdentical sends every request twice, all of them
// once and then all again, and wants the same status, Content-Type and
// body bytes both times. Every second send of an answered body goes
// through the body index; every other request is decoded.
func TestBodyIndexResendIsIdentical(t *testing.T) {
	eng := New(Config{})
	h := NewHandler(eng, 30*time.Second)
	reqs := indexedRequests(t)
	first := make([]response, len(reqs))
	answered := 0
	for i, req := range reqs {
		first[i] = send(h, req)
		if first[i].code == http.StatusOK {
			answered++
		}
	}
	if answered < len(reqs)/2 {
		t.Fatalf("only %d of %d requests answered", answered, len(reqs))
	}
	hits := eng.metrics.bodyIndexHits.Value()
	if hits != 0 {
		t.Fatalf("%d index hits on first sends", hits)
	}
	for i, req := range reqs {
		if got := send(h, req); got != first[i] {
			t.Fatalf("%s %.200s:\nfirst  %d %s %.300s\nsecond %d %s %.300s", req.path, req.body,
				first[i].code, first[i].contentType, first[i].body, got.code, got.contentType, got.body)
		}
	}
	if hits := eng.metrics.bodyIndexHits.Value(); hits != int64(answered) {
		t.Errorf("%d index hits, want one per answered request (%d)", hits, answered)
	}
	if misses := eng.metrics.bodyIndexMisses.Value(); misses != int64(2*len(reqs)-answered) {
		t.Errorf("%d index misses, want %d", misses, 2*len(reqs)-answered)
	}
}

// TestBodyIndexEvictedResult: with a one-entry result cache, an indexed
// body whose result was evicted is decoded and solved again, with the
// same answer.
func TestBodyIndexEvictedResult(t *testing.T) {
	eng := New(Config{CacheSize: 1})
	h := NewHandler(eng, 30*time.Second)
	typical, err := json.Marshal(spec.TypicalSpec())
	if err != nil {
		t.Fatal(err)
	}
	a := indexedRequest{"/v1/evaluate", `{"scenario": ` + string(typical) + `, "source": "n10"}`}
	b := indexedRequest{"/v1/network", `{"scenario": ` + string(typical) + `}` + "\n"}
	other := spec.TypicalSpec()
	other.ReportingInterval = 2
	c := indexedRequest{"/v1/network", `{"scenario": ` + mustMarshal(t, other) + `}`}

	want := send(h, a)
	if want.code != http.StatusOK {
		t.Fatalf("status %d: %s", want.code, want.body)
	}
	if got := send(h, b); got.code != http.StatusOK {
		t.Fatalf("status %d: %s", got.code, got.body)
	}
	if got := send(h, c); got.code != http.StatusOK { // evicts the typical network
		t.Fatalf("status %d: %s", got.code, got.body)
	}
	if got := send(h, a); got != want {
		t.Errorf("evicted resend:\n got %d %.300s\nwant %d %.300s", got.code, got.body, want.code, want.body)
	}
	m := eng.MetricsSnapshot()
	if m.Solves != 3 || eng.metrics.bodyIndexHits.Value() != 0 {
		t.Errorf("%d solves, %d index hits; want 3 and 0", m.Solves, eng.metrics.bodyIndexHits.Value())
	}
	if got := send(h, a); got != want || eng.metrics.bodyIndexHits.Value() != 1 {
		t.Errorf("resend after the re-solve: %d, %d index hits; want 200 and 1", got.code, eng.metrics.bodyIndexHits.Value())
	}
}

// TestBodyIndexRejectsErrors: an over-cap body and a malformed one are
// answered with the same 400 each time and never enter the index. An
// over-cap body whose JSON value ends before the cap fails on the cap too,
// as decoding the request stream does.
func TestBodyIndexRejectsErrors(t *testing.T) {
	eng := New(Config{})
	h := NewHandler(eng, 30*time.Second)
	typical := mustMarshal(t, spec.TypicalSpec())
	const tooLarge = "{\n  \"error\": \"bad request body: http: request body too large\"\n}\n"
	cases := []struct {
		req  indexedRequest
		want string
	}{
		{indexedRequest{"/v1/network", `{"scenario": {"nodes": [` + strings.Repeat(`{"name": "n"},`, maxRequestBytes/14) + `{}]}}`}, tooLarge},
		{indexedRequest{"/v1/evaluate", `{"scenario": ` + typical + `, "source": "n10"}` + strings.Repeat(" ", maxRequestBytes)}, tooLarge},
		{indexedRequest{"/v1/network", `{"scenario": ` + typical}, "{\n  \"error\": \"bad request body: unexpected EOF\"\n}\n"},
		{indexedRequest{"/v1/evaluate", `{"scenario": ` + typical + `, "source": "n10"} {}`},
			"{\n  \"error\": \"bad request body: unexpected data after the JSON value\"\n}\n"},
	}
	for _, c := range cases {
		for i := 0; i < 2; i++ {
			got := send(h, c.req)
			if got.code != http.StatusBadRequest || got.contentType != "application/json" || got.body != c.want {
				t.Errorf("%s %.80s, send %d: %d %s %q; want 400 %q", c.req.path, c.req.body, i+1, got.code, got.contentType, got.body, c.want)
			}
		}
	}
	var prom bytes.Buffer
	if err := eng.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"whart_engine_body_index_entries 0",
		"whart_engine_body_index_hits_total 0",
		"whart_engine_body_index_misses_total 8",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBodyIndexConcurrentResends sends the same network and evaluate
// bodies from several goroutines at once, so the race detector sees the
// index's readers and writers together; every answer is the first one.
func TestBodyIndexConcurrentResends(t *testing.T) {
	h := NewHandler(New(Config{}), 30*time.Second)
	typical := mustMarshal(t, spec.TypicalSpec())
	reqs := []indexedRequest{{"/v1/network", `{"scenario": ` + typical + `}`}}
	for _, src := range []string{"n1", "n4", "n10"} {
		reqs = append(reqs, indexedRequest{"/v1/evaluate", `{"scenario": ` + typical + `, "source": "` + src + `"}`})
	}
	want := make([]response, len(reqs))
	for i, req := range reqs {
		if want[i] = send(h, req); want[i].code != http.StatusOK {
			t.Fatalf("status %d: %s", want[i].code, want[i].body)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				i := (g + n) % len(reqs)
				if got := send(h, reqs[i]); got != want[i] {
					t.Errorf("%s: concurrent resend differs: %d %.200s", reqs[i].path, got.code, got.body)
					return
				}
			}
		}()
	}
	wg.Wait()
}
