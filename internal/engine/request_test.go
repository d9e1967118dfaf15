package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
)

// checkRequestAs reads body as a T with the request reader and with
// spec.DecodeStrict, the oracle. When the reader accepts the body,
// DecodeStrict must accept it too, into a deeply equal value whose floats
// are equal bit for bit. It reports whether the reader accepted.
func checkRequestAs[T any, P requestReader[T]](t testing.TB, name string, body []byte) bool {
	t.Helper()
	got, err := readRequest[T, P](body)
	if err != nil {
		return false
	}
	var want T
	if err := spec.DecodeStrict(bytes.NewReader(body), &want); err != nil {
		t.Errorf("%s: the reader accepts a %T body DecodeStrict rejects (%v):\n%q", name, want, err, body)
		return true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: reader %+v\nDecodeStrict %+v", name, got, want)
		return true
	}
	gf, wf := floatFields(reflect.ValueOf(got)), floatFields(reflect.ValueOf(want))
	for i := range gf {
		if g, w := math.Float64bits(gf[i].Float()), math.Float64bits(wf[i].Float()); g != w {
			t.Errorf("%s: float %d has bits %#x, DecodeStrict %#x", name, i, g, w)
		}
	}
	return true
}

// requestCheckers checks a body as the request of each endpoint.
var requestCheckers = map[string]func(testing.TB, string, []byte) bool{
	"/v1/network":  checkRequestAs[networkRequest],
	"/v1/evaluate": checkRequestAs[evaluateRequest],
	"/v1/batch":    checkRequestAs[batchRequest],
	"/v1/predict":  checkRequestAs[predictRequest],
	PeerSolvePath:  checkRequestAs[peerSolveRequest],
}

// checkRequest checks body as every request type and returns whether the
// reader accepts it as the request of path.
func checkRequest(t testing.TB, name, path string, body []byte) bool {
	t.Helper()
	accepted := false
	for p, check := range requestCheckers {
		if check(t, name+" as "+p, body) && p == path {
			accepted = true
		}
	}
	return accepted
}

// acceptedRequests lists bodies every client of the API writes: the body
// index tests' and the answers golden's requests, each request scenario
// wrapped by json.Marshal and json.MarshalIndent, a generated network's
// failure sweep and the full requests. DecodeStrict accepts each of them.
func acceptedRequests(t testing.TB) []goldenRequest {
	t.Helper()
	var reqs []goldenRequest
	for _, r := range indexedRequests(t) {
		reqs = append(reqs, goldenRequest{name: "indexed", path: r.path, body: r.body})
	}
	reqs = append(reqs, unindexedRequests(t)...)
	reqs = append(reqs, fullRequests()...)
	for i, doc := range requestDocs(t) {
		s, err := spec.Parse(bytes.NewReader([]byte(doc)))
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		one := 7.0
		for path, v := range map[string]any{
			"/v1/network":  networkRequest{Scenario: s},
			"/v1/evaluate": evaluateRequest{Scenario: s, Source: "n1"},
			"/v1/batch":    batchRequest{Scenarios: []*spec.Spec{s, nil, s}},
			"/v1/predict":  predictRequest{Scenario: s, Candidates: []predictCandidate{{Via: "n4", EbN0: &one}, {Via: "n1", EbN0s: []float64{6, 5}}}},
			PeerSolvePath:  peerSolveRequest{Key: "k", Scenario: s},
		} {
			compact, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			indented, err := json.MarshalIndent(v, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs,
				goldenRequest{name: fmt.Sprintf("doc %d compact", i), path: path, body: string(compact)},
				goldenRequest{name: fmt.Sprintf("doc %d indented", i), path: path, body: string(indented)})
		}
	}
	reqs = append(reqs, goldenRequest{name: "generated sweep", path: "/v1/batch", body: string(failsweepBody(t, 0))})
	return reqs
}

// TestRequestReaderAccepts: the reader accepts every body of
// acceptedRequests, into the value DecodeStrict gives.
func TestRequestReaderAccepts(t *testing.T) {
	for _, req := range acceptedRequests(t) {
		if !checkRequest(t, req.name, req.path, []byte(req.body)) {
			t.Errorf("%s %s: the reader declines %.200q", req.name, req.path, req.body)
		}
	}
}

// TestRequestReaderDeclines: the reader declines every body of
// declineRequests not marked accepted, and accepts the rest into the
// value DecodeStrict gives. A cut body and one over the cap never reach
// the reader: DecodeStrict reads what arrived and the read error.
func TestRequestReaderDeclines(t *testing.T) {
	for _, req := range declineRequests(t) {
		if req.cut || len(req.body) > maxRequestBytes {
			continue
		}
		if got := checkRequest(t, req.name, req.path, []byte(req.body)); got != req.accepted {
			t.Errorf("%s: the reader accepts %t, want %t: %.200q", req.name, got, req.accepted, req.body)
		}
	}
}

// TestRequestDecodeConcurrently: four goroutines decoding at once, through
// the pooled readers, each read their own body. Run it with -race.
func TestRequestDecodeConcurrently(t *testing.T) {
	reqs := append(fullRequests(), unindexedRequests(t)[:40]...)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(reqs); i++ {
				req := reqs[(g+i)%len(reqs)]
				if !requestCheckers[req.path](t, "concurrent "+req.name, []byte(req.body)) {
					t.Errorf("%s: the reader declines", req.name)
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzDecodeRequest checks the reader's one-way property for every
// request type: whatever it accepts, DecodeStrict accepts into an equal
// value. The seeds are acceptedRequests (keySeedDocs, FuzzParseBuild's
// seeds among them, the keys.golden specs, predict and peer bodies and a
// failure sweep) and the decline table.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range acceptedRequests(f) {
		f.Add([]byte(req.body))
	}
	for _, req := range declineRequests(f) {
		if len(req.body) <= 64<<10 {
			f.Add([]byte(req.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRequest(t, "fuzz", "", body)
	})
}

// failsweepBody returns the /v1/batch body of generated network i's
// (gen seed 1) failure sweep, as BenchmarkHTTPBatchFailsweep sends it.
func failsweepBody(tb testing.TB, i int) []byte {
	tb.Helper()
	g, err := gen.Generate(1, i, gen.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"scenarios": failSweep(g.Spec)})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// requestBenchBodies are BenchmarkRequestDecode's bodies: a generated
// network's failure sweep as one /v1/batch, and a cold /v1/network
// request for a generated network, as BenchmarkHTTPNetworkColdSolve sends.
func requestBenchBodies(b *testing.B) (sweep, network []byte) {
	g, err := gen.Generate(1, 0, gen.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	network, err = json.Marshal(map[string]any{"scenario": g.Spec})
	if err != nil {
		b.Fatal(err)
	}
	return failsweepBody(b, 0), network
}

// BenchmarkRequestDecode is the request reader on a failure-sweep
// /v1/batch body and on a cold /v1/network body.
func BenchmarkRequestDecode(b *testing.B) {
	sweep, network := requestBenchBodies(b)
	b.Run("sweep", func(b *testing.B) {
		b.SetBytes(int64(len(sweep)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := readRequest[batchRequest](sweep); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("network", func(b *testing.B) {
		b.SetBytes(int64(len(network)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := readRequest[networkRequest](network); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRequestStrictDecode is BenchmarkRequestDecode through
// spec.DecodeStrict, which decoded every request before the reader and
// still decodes the bodies the reader declines.
func BenchmarkRequestStrictDecode(b *testing.B) {
	sweep, network := requestBenchBodies(b)
	b.Run("sweep", func(b *testing.B) {
		b.SetBytes(int64(len(sweep)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req batchRequest
			if err := spec.DecodeStrict(bytes.NewReader(sweep), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("network", func(b *testing.B) {
		b.SetBytes(int64(len(network)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req networkRequest
			if err := spec.DecodeStrict(bytes.NewReader(network), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
