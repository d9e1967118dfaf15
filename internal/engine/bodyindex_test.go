package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
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

// indexedRequests lists /v1/network and /v1/evaluate bodies over
// requestDocs: one network body per scenario and one evaluate body per
// node name, plus an evaluate body naming no node and one without a
// source.
func indexedRequests(t testing.TB) []indexedRequest {
	t.Helper()
	var reqs []indexedRequest
	for _, doc := range requestDocs(t) {
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

func mustMarshal(t testing.TB, v any) string {
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

// goldenRequest is one request of the answers golden. A cut body ends
// early: its reader fails with io.ErrUnexpectedEOF after the bytes, as a
// connection that closes before its announced length does. accepted says
// whether the request reader accepts the body (request_test.go checks it).
type goldenRequest struct {
	name, path, body string
	cut              bool
	accepted         bool
}

// sendGolden answers req through h.
func sendGolden(h http.Handler, req goldenRequest) response {
	var body io.Reader = strings.NewReader(req.body)
	if req.cut {
		body = io.MultiReader(body, iotest.ErrReader(io.ErrUnexpectedEOF))
	}
	hr := httptest.NewRequest(http.MethodPost, req.path, body)
	if req.cut {
		hr.ContentLength = int64(len(req.body)) + 100
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hr)
	return response{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

// requestDocs returns the scenario documents of the request tables: the
// key cases, a scenario naming a node it does not declare, one whose link
// does not key, and FuzzKey's seed specs (FuzzParseBuild's among them).
func requestDocs(t testing.TB) []string {
	t.Helper()
	var docs []string
	seen := map[string]bool{}
	add := func(doc string) {
		if !seen[doc] {
			seen[doc] = true
			docs = append(docs, doc)
		}
	}
	for _, c := range keyCases(t) {
		add(mustMarshal(t, c.spec))
	}
	ghost := spec.TypicalSpec()
	ghost.Links = append(ghost.Links, spec.Link{A: "n1", B: "ghost"})
	add(mustMarshal(t, ghost))
	badBER := spec.TypicalSpec()
	badBER.Links[2].BER = new(float64)
	*badBER.Links[2].BER = -1
	add(mustMarshal(t, badBER))
	for _, doc := range keySeedDocs {
		add(doc)
	}
	return docs
}

// unindexedRequests lists /v1/batch, /v1/predict and /v1/peer/solve
// bodies over requestDocs: per scenario a one-scenario batch, a
// prediction with a single-hop and a multi-hop candidate, and peer
// requests without a key, with its key and with a wrong one; then the
// typical network's failure sweep, duplicates in one batch, and the
// empty and missing lists.
func unindexedRequests(t testing.TB) []goldenRequest {
	t.Helper()
	var reqs []goldenRequest
	for i, doc := range requestDocs(t) {
		name := func(what string) string { return fmt.Sprintf("doc %d %s", i, what) }
		reqs = append(reqs,
			goldenRequest{name: name("batch"), path: "/v1/batch", body: `{"scenarios": [` + doc + `]}`},
			goldenRequest{name: name("predict"), path: "/v1/predict",
				body: `{"scenario": ` + doc + `, "candidates": [{"via": "n4", "ebN0": 7}, {"via": "n1", "ebN0s": [6, 5]}]}`},
			goldenRequest{name: name("peer"), path: PeerSolvePath, body: `{"scenario": ` + doc + `}`},
			goldenRequest{name: name("peer wrong key"), path: PeerSolvePath, body: `{"key": "00", "scenario": ` + doc + `}`},
		)
		if s, err := spec.Parse(strings.NewReader(doc)); err == nil {
			if key, err := Key(s); err == nil {
				reqs = append(reqs, goldenRequest{name: name("peer keyed"), path: PeerSolvePath,
					body: `{"key": "` + key + `", "scenario": ` + doc + `}`})
			}
		}
	}
	typical := mustMarshal(t, spec.TypicalSpec())
	reqs = append(reqs,
		goldenRequest{name: "typical sweep", path: "/v1/batch", body: mustMarshal(t, map[string]any{"scenarios": failSweep(spec.TypicalSpec())})},
		goldenRequest{name: "duplicates", path: "/v1/batch", body: `{"scenarios": [` + typical + `, ` + typical + "]}\n"},
		goldenRequest{name: "empty batch", path: "/v1/batch", body: `{"scenarios": []}`},
		goldenRequest{name: "missing batch", path: "/v1/batch", body: `{}`},
		goldenRequest{name: "no candidates", path: "/v1/predict", body: `{"scenario": ` + typical + `, "candidates": []}`},
		goldenRequest{name: "peer without scenario", path: PeerSolvePath, body: `{"key": "00"}`},
	)
	return reqs
}

// fullRequests are one body per endpoint whose scenarios, between them,
// set every spec member, so that the null variants of declineRequests
// reach every position of the request schema.
func fullRequests() []goldenRequest {
	const (
		generated = `{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1", "kind": "field-device"}, {"name": "n2"}, {"name": "n3"}, {"name": "n4"}],
  "links": [{"a": "n1", "b": "G", "pfl": 0.1, "prc": 0.8, "failure": {"kind": "window", "fromSlot": 1, "toSlot": 3}},
    {"a": "n2", "b": "n1", "fading": {"transitions": [[0.9, 0.1], [0.4, 0.6]], "success": [1, 0.5]}},
    {"a": "n3", "b": "G", "availability": 0.9},
    {"a": "n4", "b": "n3", "ebN0": 7, "failure": {"kind": "permanent"}},
    {"a": "n4", "b": "n2", "ber": 1e-4}],
  "schedule": {"priority": ["n4", "n3", "n2", "n1"], "channels": 2, "extraIdle": 1},
  "reportingInterval": 2, "ttl": 6, "fdown": 9, "messageBits": 800, "defaultBer": 2e-4, "sources": ["n1", "n2", "n4"]}`
		explicit = `{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}, {"name": "n2"}],
  "links": [{"a": "n1", "b": "G"}, {"a": "n2", "b": "n1", "pfl": 0.2}],
  "schedule": {"fup": 5, "slots": [{"slot": 1, "from": "n1", "to": "G", "source": "n1"},
    {"slot": 2, "from": "n2", "to": "n1", "source": "n2"}, {"slot": 3, "from": "n1", "to": "G", "source": "n2"}]}}`
		policy = `{"nodes": [{"name": "G", "kind": "gateway"}, {"name": "n1"}], "links": [{"a": "n1", "b": "G"}],
  "schedule": {"policy": "shortest-first"}}`
	)
	return []goldenRequest{
		{name: "network generated", path: "/v1/network", body: `{"scenario": ` + generated + `}`},
		{name: "network explicit", path: "/v1/network", body: `{"scenario": ` + explicit + `}`},
		{name: "network policy", path: "/v1/network", body: `{"scenario": ` + policy + `}`},
		{name: "evaluate", path: "/v1/evaluate", body: `{"scenario": ` + generated + `, "source": "n2"}`},
		{name: "batch", path: "/v1/batch", body: `{"scenarios": [` + explicit + `, ` + policy + `]}`},
		{name: "peer", path: PeerSolvePath, body: `{"key": "00", "scenario": ` + policy + `}`},
		{name: "predict", path: "/v1/predict",
			body: `{"scenario": ` + explicit + `, "candidates": [{"via": "n2", "ebN0": 7}, {"via": "n1", "ebN0s": [6, 5]}]}`},
	}
}

// nullVariants returns body with each of its values below the top, one
// at a time, replaced by null: every object member and every array
// element. The variants are re-encoded by json.Marshal (members sorted,
// numbers kept as written).
func nullVariants(t testing.TB, body string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	dec.UseNumber()
	var root any
	if err := dec.Decode(&root); err != nil {
		t.Fatal(err)
	}
	var out []string
	var walk func(v any)
	emit := func(set func(any), old any) {
		set(nil)
		out = append(out, mustMarshal(t, root))
		set(old)
	}
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				emit(func(y any) { v[k] = y }, x)
				walk(x)
			}
		case []any:
			for i, x := range v {
				emit(func(y any) { v[i] = y }, x)
				walk(x)
			}
		}
	}
	walk(root)
	sort.Strings(out)
	return out
}

// declineRequests is the table of bodies at the edge of the request
// reader's language: the ones it declines, whose answer DecodeStrict
// gives, and a few it accepts (null values, -0, a lone surrogate, invalid
// UTF-8 in a value), which DecodeStrict accepts alike. Either way the
// answer must be the one DecodeStrict alone gave (testdata/requests.golden).
func declineRequests(t testing.TB) []goldenRequest {
	t.Helper()
	full := fullRequests()
	network := full[0]
	var out []goldenRequest
	edit := func(base goldenRequest, name, old, new string, accepted bool) {
		t.Helper()
		if !strings.Contains(base.body, old) {
			t.Fatalf("%s: %q is not in the %s body", name, old, base.name)
		}
		out = append(out, goldenRequest{name: base.name + ": " + name, path: base.path,
			body: strings.Replace(base.body, old, new, 1), accepted: accepted})
	}
	whole := func(base goldenRequest, name, body string, accepted bool) {
		out = append(out, goldenRequest{name: base.name + ": " + name, path: base.path, body: body, accepted: accepted})
	}
	for _, base := range full {
		out = append(out, goldenRequest{name: base.name, path: base.path, body: base.body, accepted: true})
		for i, body := range nullVariants(t, base.body) {
			whole(base, fmt.Sprintf("null %d", i), body, true)
		}
		top := strings.SplitN(base.body, `"`, 3)[1] // the first member's name
		edit(base, "re-cased member", `"`+top+`"`, `"`+strings.ToUpper(top[:1])+top[1:]+`"`, false)
		edit(base, "escaped member", `"`+top+`"`, `"\u00`+fmt.Sprintf("%x", top[0])+top[1:]+`"`, false)
		edit(base, "repeated member", `{"`+top+`"`, `{"`+top+`": null, "`+top+`"`, false)
		edit(base, "unknown member", `{"`+top+`"`, `{"extra": 1, "`+top+`"`, false)
		whole(base, "top-level null", "null", false)
		whole(base, "top-level array", "[]", false)
		whole(base, "top-level string", `"x"`, false)
		whole(base, "empty object", "{}", true)
		whole(base, "empty body", "", false)
		whole(base, "byte order mark", "\xef\xbb\xbf"+base.body, false)
		whole(base, "trailing object", base.body+" {}", false)
		whole(base, "trailing comma", base.body+",", false)
		whole(base, "trailing whitespace", base.body+" \n\t\r ", true)
		whole(base, "leading whitespace", " \n\t\r "+base.body, true)
		for _, n := range []int{1, 2, len(base.body) / 3, len(base.body) - 1} {
			whole(base, fmt.Sprintf("truncated at %d", n), base.body[:n], false)
		}
		out = append(out, goldenRequest{name: base.name + ": cut", path: base.path, body: base.body, cut: true})
		out = append(out, goldenRequest{name: base.name + ": cut short", path: base.path, body: base.body[:len(base.body)/2], cut: true})
		whole(base, "over the cap after the value", base.body+strings.Repeat(" ", maxRequestBytes), false)
	}
	for _, e := range []struct {
		name, old, new string
		accepted       bool
	}{
		{"re-cased nested member", `"nodes"`, `"Nodes"`, false},
		{"re-cased link member", `"pfl"`, `"PFl"`, false},
		{"re-cased int member", `"fromSlot"`, `"fromslot"`, false},
		{"escaped nested member", `"name": "G"`, `"n\u0061me": "G"`, false},
		{"repeated nested member", `"ttl": 6`, `"ttl": 6, "ttl": 7`, false},
		{"repeated pointer member", `"kind": "window", `, `"kind": "window", "failure": {"kind": "permanent"}, `, false},
		{"repeated failure", `"toSlot": 3}`, `"toSlot": 3}, "failure": {"toSlot": 4}`, false},
		{"unknown nested member", `"ttl": 6`, `"ttl": 6, "bogus": 1`, false},
		{"unknown link member", `"pfl": 0.1`, `"pfl": 0.1, "pfl2": 0.1`, false},
		{"invalid utf-8 member", `"ttl": 6`, "\"t\xfftl\": 6", false},
		{"negative zero int", `"ttl": 6`, `"ttl": -0`, true},
		{"negative zero float", `"pfl": 0.1`, `"pfl": -0`, true},
		{"negative zero point float", `"ber": 1e-4`, `"ber": -0.0`, true},
		{"fraction in int", `"ttl": 6`, `"ttl": 6.0`, false},
		{"exponent in int", `"fromSlot": 1`, `"fromSlot": 1e2`, false},
		{"int overflow", `"channels": 2`, `"channels": 9223372036854775808`, false},
		{"int underflow", `"fdown": 9`, `"fdown": -9223372036854775809`, false},
		{"float overflow", `"pfl": 0.1`, `"pfl": 1e309`, false},
		{"negative float overflow", `"defaultBer": 2e-4`, `"defaultBer": -1e309`, false},
		{"float overflow in a row", `[0.9, 0.1]`, `[0.9, 1e309]`, false},
		{"float underflow", `"pfl": 0.1`, `"pfl": 1e-400`, true},
		{"smallest subnormal", `"pfl": 0.1`, `"pfl": 4.9406564584124654e-324`, true},
		{"long mantissa", `"availability": 0.9`, `"availability": 0.900000000000000022204460492503130808472633361816406250000001`, true},
		{"plus sign", `"ttl": 6`, `"ttl": +6`, false},
		{"leading zero", `"ttl": 6`, `"ttl": 06`, false},
		{"bare point", `"pfl": 0.1`, `"pfl": .1`, false},
		{"hex number", `"pfl": 0.1`, `"pfl": 0x1p-3`, false},
		{"NaN", `"pfl": 0.1`, `"pfl": NaN`, false},
		{"quoted number", `"ttl": 6`, `"ttl": "6"`, false},
		{"number for string", `"name": "n2"`, `"name": 2`, false},
		{"bool for int", `"ttl": 6`, `"ttl": true`, false},
		{"object for array", `"sources": ["n1", "n2", "n4"]`, `"sources": {}`, false},
		{"array for object", `"schedule": {`, `"schedule": [], "x": {`, false},
		{"bad escape", `"name": "n2"`, `"name": "n\x32"`, false},
		{"short unicode escape", `"name": "n2"`, `"name": "\u006"`, false},
		{"escapes", `"name": "n2"`, `"name": "n\u0032\t\"\\\/\b\f\n\r"`, true},
		{"surrogate pair", `"name": "n2"`, `"name": "\ud834\udd1e"`, true},
		{"lone surrogate", `"name": "n2"`, `"name": "\ud800x"`, true},
		{"invalid utf-8 value", `"name": "n2"`, "\"name\": \"n\xff\xfe2\"", true},
		{"raw control byte", `"name": "n2"`, "\"name\": \"n\x012\"", false},
		{"raw newline", `"name": "n2"`, "\"name\": \"n\n2\"", false},
		{"single quotes", `"name": "n2"`, `"name": 'n2'`, false},
		{"trailing comma in object", `"success": [1, 0.5]}`, `"success": [1, 0.5],}`, false},
		{"trailing comma in array", `[1, 0.5]`, `[1, 0.5,]`, false},
		{"missing comma", `"ttl": 6, "fdown"`, `"ttl": 6 "fdown"`, false},
		{"missing colon", `"ttl": 6`, `"ttl" 6`, false},
		{"every whitespace", `"ttl": 6, `, "\"ttl\"\t:\r\n6\n,\t", true},
		{"empty arrays", `"sources": ["n1", "n2", "n4"]`, `"sources": []`, true},
	} {
		edit(network, e.name, e.old, e.new, e.accepted)
	}
	edit(full[3], "re-cased source", `"source"`, `"Source"`, false)
	edit(full[4], "re-cased scenarios", `"scenarios"`, `"Scenarios"`, false)
	edit(full[4], "null scenario", `"scenarios": [`, `"scenarios": [null, `, true)
	edit(full[5], "re-cased key", `"key"`, `"Key"`, false)
	edit(full[6], "re-cased candidates", `"candidates"`, `"Candidates"`, false)
	edit(full[6], "re-cased ebN0", `"ebN0"`, `"EbN0"`, false)
	edit(full[6], "repeated ebN0s", `"ebN0s": [6, 5]`, `"ebN0s": [6], "ebN0s": [5]`, false)
	edit(full[6], "unknown candidate member", `"ebN0": 7`, `"ebN0": 7, "snr": 7`, false)
	nodes := strings.Repeat(`{"name": "n"}, `, maxRequestBytes/14)
	out = append(out, goldenRequest{name: "over the cap", path: "/v1/network", body: `{"scenario": {"nodes": [` + nodes + `{}]}}`})
	out = append(out, goldenRequest{name: "batch over the cap", path: "/v1/batch", body: `{"scenarios": [{"nodes": [` + nodes + `{}]}]}`})
	return out
}

// updateRequests regenerates testdata/requests.golden:
// UPDATE_GOLDEN=1 go test ./internal/engine -run TestRequestAnswersGolden
var updateRequests = os.Getenv("UPDATE_GOLDEN") != ""

// TestRequestAnswersGolden pins the status and body of the answer to
// every request of indexedRequests, unindexedRequests and declineRequests,
// as recorded when spec.DecodeStrict decoded every request body (commit
// b08e4e6): one line per request, in order, with the status and the
// body's hash. Every answer is JSON.
func TestRequestAnswersGolden(t *testing.T) {
	var reqs []goldenRequest
	for i, r := range indexedRequests(t) {
		reqs = append(reqs, goldenRequest{name: fmt.Sprintf("indexed %d", i), path: r.path, body: r.body})
	}
	reqs = append(reqs, unindexedRequests(t)...)
	reqs = append(reqs, declineRequests(t)...)
	h := NewHandler(New(Config{}), 30*time.Second)
	var b strings.Builder
	answers := make([]response, len(reqs))
	for i, req := range reqs {
		got := sendGolden(h, req)
		if got.contentType != "application/json" {
			t.Errorf("%s: Content-Type %q", req.name, got.contentType)
		}
		answers[i] = got
		fmt.Fprintf(&b, "%d %.4x\n", got.code, sha256.Sum256([]byte(got.body)))
	}
	path := filepath.Join("testdata", "requests.golden")
	if updateRequests {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d answers, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i, req := range reqs {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s %s %.100q: answer %s, golden %s: %.300s", req.name, req.path, req.body,
				gotLines[i], wantLines[i], answers[i].body)
		}
	}
}
