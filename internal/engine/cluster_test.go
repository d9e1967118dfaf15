package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wirelesshart/internal/cluster"
	"wirelesshart/internal/spec"
)

// scenarioOwnedBy sweeps reporting intervals until it finds a scenario
// whose canonical key the ring assigns to the wanted member — ownership
// is a deterministic function of the key, so tests pick their scenarios
// instead of hoping.
func scenarioOwnedBy(t *testing.T, ring *cluster.Ring, owner string) *spec.Spec {
	t.Helper()
	for is := 1; is <= 64; is++ {
		s := spec.TypicalSpec()
		s.ReportingInterval = is
		key, err := Key(s)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(key).ID == owner {
			return s
		}
	}
	t.Fatalf("no typical-spec variant owned by %q in 64 tries", owner)
	return nil
}

// fastPeerClient fails fast so degraded-path tests stay quick.
func fastPeerClient() *cluster.Client {
	return cluster.NewClient(cluster.ClientConfig{
		Timeout: 2 * time.Second,
		Retries: -1,
	})
}

// twoReplicaCluster wires engines "a" and "b" into a ring, with a served
// over HTTP so b can forward to it.
func twoReplicaCluster(t *testing.T) (engA, engB *Engine) {
	t.Helper()
	// Ownership depends only on member IDs, so a's ring can omit URLs —
	// a never forwards the keys it owns.
	ringA, err := cluster.NewRing("a", []cluster.Member{{ID: "a"}, {ID: "b"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	engA = New(Config{Ring: ringA, PeerClient: fastPeerClient()})
	srvA := httptest.NewServer(NewHandler(engA, 30*time.Second))
	t.Cleanup(srvA.Close)
	ringB, err := cluster.NewRing("b", []cluster.Member{{ID: "a", URL: srvA.URL}, {ID: "b"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	engB = New(Config{Ring: ringB, PeerClient: fastPeerClient()})
	return engA, engB
}

func TestClusterForwardAndCrossReplicaHit(t *testing.T) {
	engA, engB := twoReplicaCluster(t)
	s := scenarioOwnedBy(t, engB.Ring(), "a")
	ctx := context.Background()

	// b does not own the key: the solve is forwarded to a.
	res, err := engB.Evaluate(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := engB.MetricsSnapshot(); got.PeerForwarded != 1 || got.Solves != 0 || got.PeerDegradedLocal != 0 {
		t.Errorf("b: forwarded=%d solves=%d degraded=%d, want 1/0/0",
			got.PeerForwarded, got.Solves, got.PeerDegradedLocal)
	}
	if got := engA.MetricsSnapshot(); got.PeerServed != 1 || got.Solves != 1 {
		t.Errorf("a: served=%d solves=%d, want 1/1", got.PeerServed, got.Solves)
	}

	// The forwarded result matches a local solve bit for bit.
	standalone := New(Config{})
	want, err := standalone.Evaluate(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	resJSON, _ := json.Marshal(res)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(resJSON, wantJSON) {
		t.Error("forwarded result differs from a local solve")
	}

	// Cross-replica cache hits: b cached the forwarded result and serves
	// it locally; a serves its own copy on the next forward.
	if _, err := engB.Evaluate(ctx, s); err != nil {
		t.Fatal(err)
	}
	if got := engB.MetricsSnapshot(); got.CacheHits != 1 || got.PeerForwarded != 1 {
		t.Errorf("b second call: hits=%d forwarded=%d, want 1/1", got.CacheHits, got.PeerForwarded)
	}
	if _, err := engA.Evaluate(ctx, s); err != nil {
		t.Fatal(err)
	}
	if got := engA.MetricsSnapshot(); got.CacheHits != 1 || got.Solves != 1 {
		t.Errorf("a after peer-solve: hits=%d solves=%d, want 1/1", got.CacheHits, got.Solves)
	}
}

// TestForwardTraceSpans: a forward's trace splits its time into the
// owner's round trip ("peer") and the local parse of the owner's body
// ("decode"), in that order.
func TestForwardTraceSpans(t *testing.T) {
	_, engB := twoReplicaCluster(t)
	s := scenarioOwnedBy(t, engB.Ring(), "a")
	if _, err := engB.Evaluate(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	var forwards int
	for _, tr := range engB.Traces().Snapshot() {
		if tr.Name != "forward" {
			continue
		}
		forwards++
		var names []string
		for _, sp := range tr.Spans {
			names = append(names, sp.Name)
		}
		if len(names) != 2 || names[0] != "peer" || names[1] != "decode" || tr.Error != "" {
			t.Errorf("forward trace spans %v, error %q; want [peer decode] and no error", names, tr.Error)
		}
		if dec, _ := tr.Span("decode"); dec.Attr("bytes") == "" || dec.Attr("bytes") == "0" {
			t.Errorf("decode span does not carry the body's size: %+v", dec)
		}
	}
	if forwards != 1 {
		t.Errorf("%d forward traces, want 1", forwards)
	}
}

// TestClusterDegradedLocal kills the owner and requires the non-owner to
// answer anyway, counting the degradation.
func TestClusterDegradedLocal(t *testing.T) {
	members := []cluster.Member{{ID: "a", URL: "http://127.0.0.1:1"}, {ID: "b"}}
	ring, err := cluster.NewRing("b", members, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Ring: ring, PeerClient: fastPeerClient()})
	s := scenarioOwnedBy(t, ring, "a")

	res, err := eng.Evaluate(context.Background(), s)
	if err != nil {
		t.Fatalf("request failed because a peer is dead: %v", err)
	}
	if len(res.Paths) != 10 {
		t.Errorf("%d paths from the degraded solve, want 10", len(res.Paths))
	}
	snap := eng.MetricsSnapshot()
	if snap.PeerForwarded != 1 || snap.PeerForwardErrors != 1 || snap.PeerDegradedLocal != 1 || snap.Solves != 1 {
		t.Errorf("forwarded=%d errors=%d degraded=%d solves=%d, want 1/1/1/1",
			snap.PeerForwarded, snap.PeerForwardErrors, snap.PeerDegradedLocal, snap.Solves)
	}

	// The degraded result is cached: the retry serves it locally without
	// another forward attempt.
	if _, err := eng.Evaluate(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if snap := eng.MetricsSnapshot(); snap.CacheHits != 1 || snap.PeerForwarded != 1 {
		t.Errorf("hits=%d forwarded=%d after retry, want 1/1", snap.CacheHits, snap.PeerForwarded)
	}
}

// TestClusterRejectsMismatchedPeerResult: a peer answering with a result
// for a different key (ring or canonicalization skew) must not be
// trusted; the engine degrades to a local solve.
func TestClusterRejectsMismatchedPeerResult(t *testing.T) {
	bogus := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(&Result{Key: "not-the-key", Utilization: 0.5})
	}))
	defer bogus.Close()
	members := []cluster.Member{{ID: "a", URL: bogus.URL}, {ID: "b"}}
	ring, err := cluster.NewRing("b", members, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Ring: ring, PeerClient: fastPeerClient()})
	s := scenarioOwnedBy(t, ring, "a")
	res, err := eng.Evaluate(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == "not-the-key" {
		t.Fatal("engine cached a peer result for the wrong key")
	}
	snap := eng.MetricsSnapshot()
	if snap.PeerForwardErrors != 1 || snap.PeerDegradedLocal != 1 || snap.Solves != 1 {
		t.Errorf("errors=%d degraded=%d solves=%d, want 1/1/1",
			snap.PeerForwardErrors, snap.PeerDegradedLocal, snap.Solves)
	}
}

// TestClusterUndecodablePeerResult: a peer body the result reader
// rejects, json.Unmarshal's looser forms included, is a forward error and
// degrades to a local solve.
func TestClusterUndecodablePeerResult(t *testing.T) {
	for name, body := range map[string]string{
		"truncated":         `{"key":"`,
		"reordered members": `{"fup":0,"key":"k","is":0,"schedule":"","paths":null,"overallMeanDelayMS":0,"utilization":0}`,
		"trailing data":     `{"key":"k","fup":0,"is":0,"schedule":"","paths":null,"overallMeanDelayMS":0,"utilization":0} x`,
	} {
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, body)
		}))
		ring, err := cluster.NewRing("b", []cluster.Member{{ID: "a", URL: peer.URL}, {ID: "b"}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(Config{Ring: ring, PeerClient: fastPeerClient()})
		s := scenarioOwnedBy(t, ring, "a")
		if res, err := eng.Evaluate(context.Background(), s); err != nil || len(res.Paths) != 10 {
			t.Errorf("%s: the request did not degrade to a local solve: %v", name, err)
		}
		snap := eng.MetricsSnapshot()
		if snap.PeerForwardErrors != 1 || snap.PeerDegradedLocal != 1 || snap.Solves != 1 {
			t.Errorf("%s: errors=%d degraded=%d solves=%d, want 1/1/1",
				name, snap.PeerForwardErrors, snap.PeerDegradedLocal, snap.Solves)
		}
		peer.Close()
	}
}

// TestClusterCallerCancelDoesNotDegrade: a caller that hangs up while its
// request is being forwarded gets its context error; the engine neither
// counts a degraded local solve nor starts one.
func TestClusterCallerCancelDoesNotDegrade(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // a drained body lets the server see the hang-up
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	defer slow.Close()
	ring, err := cluster.NewRing("b", []cluster.Member{{ID: "a", URL: slow.URL}, {ID: "b"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Ring: ring, PeerClient: fastPeerClient()})
	s := scenarioOwnedBy(t, ring, "a")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := eng.Evaluate(ctx, s); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the caller's deadline", err)
	}
	snap := eng.MetricsSnapshot()
	if snap.PeerForwarded != 1 || snap.PeerDegradedLocal != 0 || snap.Solves != 0 {
		t.Errorf("forwarded=%d degraded=%d solves=%d, want 1/0/0",
			snap.PeerForwarded, snap.PeerDegradedLocal, snap.Solves)
	}
	if !eng.peer.Healthy(ring.Owner(mustKey(t, s))) {
		t.Error("the caller's cancellation counted against the peer")
	}
}

func TestClusterBatchForwarding(t *testing.T) {
	engA, engB := twoReplicaCluster(t)
	sA := scenarioOwnedBy(t, engB.Ring(), "a")
	sB := scenarioOwnedBy(t, engB.Ring(), "b")
	ctx := context.Background()

	results, err := engB.EvaluateBatch(ctx, []*spec.Spec{sA, sB, sA})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0].Key != results[2].Key {
		t.Fatalf("batch results malformed")
	}
	snapB := engB.MetricsSnapshot()
	if snapB.PeerForwarded != 1 {
		t.Errorf("b forwarded %d, want 1 (only the a-owned miss)", snapB.PeerForwarded)
	}
	if snapB.Solves != 1 {
		t.Errorf("b solved %d locally, want 1 (its own key)", snapB.Solves)
	}
	if snapA := engA.MetricsSnapshot(); snapA.PeerServed != 1 || snapA.Solves != 1 {
		t.Errorf("a: served=%d solves=%d, want 1/1", snapA.PeerServed, snapA.Solves)
	}

	// Same batch again: everything is in b's cache now.
	if _, err := engB.EvaluateBatch(ctx, []*spec.Spec{sA, sB, sA}); err != nil {
		t.Fatal(err)
	}
	if snap := engB.MetricsSnapshot(); snap.CacheHits != 2 || snap.PeerForwarded != 1 {
		t.Errorf("repeat batch: hits=%d forwarded=%d, want 2/1", snap.CacheHits, snap.PeerForwarded)
	}
}

func TestClusterBatchDegradedLocal(t *testing.T) {
	members := []cluster.Member{{ID: "a", URL: "http://127.0.0.1:1"}, {ID: "b"}}
	ring, err := cluster.NewRing("b", members, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Ring: ring, PeerClient: fastPeerClient()})
	sA := scenarioOwnedBy(t, ring, "a")
	sB := scenarioOwnedBy(t, ring, "b")
	results, err := eng.EvaluateBatch(context.Background(), []*spec.Spec{sA, sB})
	if err != nil {
		t.Fatalf("batch failed because a peer is dead: %v", err)
	}
	for i, r := range results {
		if len(r.Paths) != 10 {
			t.Errorf("result %d: %d paths, want 10", i, len(r.Paths))
		}
	}
	snap := eng.MetricsSnapshot()
	if snap.PeerDegradedLocal != 1 || snap.Solves != 2 {
		t.Errorf("degraded=%d solves=%d, want 1/2", snap.PeerDegradedLocal, snap.Solves)
	}
}

// TestPeerSolveEndpoint exercises the peer protocol over real HTTP.
func TestPeerSolveEndpoint(t *testing.T) {
	eng := New(Config{})
	srv := httptest.NewServer(NewHandler(eng, 30*time.Second))
	defer srv.Close()

	s := spec.TypicalSpec()
	key, err := Key(s)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, srv.URL+PeerSolvePath, map[string]any{"key": key, "scenario": s})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var res Result
	decodeBody(t, resp, &res)
	if res.Key != key || len(res.Paths) != 10 {
		t.Errorf("peer solve returned key %s with %d paths", res.Key, len(res.Paths))
	}
	if served := eng.MetricsSnapshot().PeerServed; served != 1 {
		t.Errorf("peerServed = %d, want 1", served)
	}

	// A mismatched key is the sender's problem, reported as a 400.
	resp = postJSON(t, srv.URL+PeerSolvePath, map[string]any{"key": "deadbeef", "scenario": s})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched key: status %d, want 400", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+PeerSolvePath, map[string]any{"key": key})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing scenario: status %d, want 400", resp.StatusCode)
	}
}

// TestReadyzReportsRingAndSnapshot checks the readiness payload in both
// standalone and clustered configurations.
func TestReadyzReportsRingAndSnapshot(t *testing.T) {
	standalone := New(Config{})
	srv := httptest.NewServer(NewHandler(standalone, time.Second))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body struct {
		Ready    bool            `json:"ready"`
		Ring     json.RawMessage `json:"ring"`
		Snapshot SnapshotStatus  `json:"snapshot"`
	}
	decodeBody(t, resp, &body)
	if !body.Ready || body.Ring != nil || body.Snapshot.State != SnapshotNone {
		t.Errorf("standalone readyz = %+v", body)
	}

	ring, err := cluster.NewRing("b", []cluster.Member{{ID: "a", URL: "http://peer-a"}, {ID: "b"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	clustered := New(Config{Ring: ring})
	srv2 := httptest.NewServer(NewHandler(clustered, time.Second))
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var body2 struct {
		Ready bool `json:"ready"`
		Ring  struct {
			Self         string           `json:"self"`
			Members      []cluster.Member `json:"members"`
			VirtualNodes int              `json:"virtualNodes"`
		} `json:"ring"`
	}
	decodeBody(t, resp2, &body2)
	if !body2.Ready || body2.Ring.Self != "b" || len(body2.Ring.Members) != 2 ||
		body2.Ring.VirtualNodes != cluster.DefaultVirtualNodes {
		t.Errorf("clustered readyz = %+v", body2)
	}
}
