package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testClient returns a client with instant, deterministic backoff.
func testClient(cfg ClientConfig) *Client {
	if cfg.Rand == nil {
		cfg.Rand = func() float64 { return 0.5 }
	}
	cfg.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	return NewClient(cfg)
}

func TestPostSuccess(t *testing.T) {
	var gotBody atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/peer/solve" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		gotBody.Store(r.Header.Get("Content-Type"))
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	c := testClient(ClientConfig{})
	out, err := c.Post(context.Background(), Member{ID: "p", URL: srv.URL}, "/v1/peer/solve", []byte(`{"key":"k"}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"ok":true}` {
		t.Errorf("body %q", out)
	}
	if ct := gotBody.Load(); ct != "application/json" {
		t.Errorf("content type %v", ct)
	}
}

// lengthRecorder is a transport that notes the Content-Length of every
// response it returns (-1 when the peer did not announce one).
type lengthRecorder struct{ lengths []int64 }

func (l *lengthRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		l.lengths = append(l.lengths, resp.ContentLength)
	}
	return resp, err
}

// TestPostReadsSizedAndChunkedBodies: a body whose length the peer
// announces and one it sends in chunks of unknown total both come back
// whole.
func TestPostReadsSizedAndChunkedBodies(t *testing.T) {
	body := []byte(strings.Repeat(`{"delay":[0.125,1e-7]},`, 400))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sized" {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
			return
		}
		for i := 0; i < len(body); i += 1000 {
			w.Write(body[i:min(i+1000, len(body))])
			w.(http.Flusher).Flush()
		}
	}))
	defer srv.Close()
	rec := &lengthRecorder{}
	c := testClient(ClientConfig{Transport: rec})
	for _, path := range []string{"/sized", "/chunked"} {
		out, err := c.Post(context.Background(), Member{ID: "p", URL: srv.URL}, path, nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(out, body) {
			t.Errorf("%s: got %d bytes, want the %d sent", path, len(out), len(body))
		}
	}
	if want := []int64{int64(len(body)), -1}; !reflect.DeepEqual(rec.lengths, want) {
		t.Errorf("response lengths %v, want %v: one sized and one chunked body", rec.lengths, want)
	}
}

func TestPostRetriesTransientFailure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := testClient(ClientConfig{Retries: 1})
	out, err := c.Post(context.Background(), Member{ID: "p", URL: srv.URL}, "/", nil)
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if string(out) != "ok" || calls.Load() != 2 {
		t.Errorf("out=%q calls=%d, want ok after 2 attempts", out, calls.Load())
	}
}

func TestPost4xxIsTerminal(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad scenario", http.StatusBadRequest)
	}))
	defer srv.Close()
	c := testClient(ClientConfig{Retries: 3})
	_, err := c.Post(context.Background(), Member{ID: "p", URL: srv.URL}, "/", nil)
	if err == nil {
		t.Fatal("4xx answered without error")
	}
	if errors.Is(err, ErrPeerUnavailable) {
		t.Errorf("a 4xx means the peer is healthy, got %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("%d attempts on a 4xx, want 1 (no retry)", calls.Load())
	}
	if !c.Healthy(Member{ID: "p"}) {
		t.Error("4xx opened the breaker")
	}
}

func TestPostNoURL(t *testing.T) {
	c := testClient(ClientConfig{})
	_, err := c.Post(context.Background(), Member{ID: "self"}, "/", nil)
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("err = %v, want ErrPeerUnavailable", err)
	}
}

// TestBreakerOpensAndRecovers drives a peer through failure, open-breaker
// rejection, and half-open recovery.
func TestBreakerOpensAndRecovers(t *testing.T) {
	var calls atomic.Int64
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := testClient(ClientConfig{Retries: -1, FailureThreshold: 2, Cooldown: 50 * time.Millisecond})
	peer := Member{ID: "p", URL: srv.URL}
	ctx := context.Background()

	// Two failed forwards (one attempt each) open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := c.Post(ctx, peer, "/", nil); !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("forward %d: err = %v, want ErrPeerUnavailable", i, err)
		}
	}
	if c.Healthy(peer) {
		t.Fatal("breaker still closed after hitting the threshold")
	}
	before := calls.Load()
	if _, err := c.Post(ctx, peer, "/", nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("open breaker: err = %v", err)
	}
	if calls.Load() != before {
		t.Error("open breaker still let a request through")
	}

	// After the cooldown one probe goes through; the peer is back, so the
	// breaker closes and traffic resumes.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Post(ctx, peer, "/", nil); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if !c.Healthy(peer) {
		t.Error("breaker still open after a successful probe")
	}
	if _, err := c.Post(ctx, peer, "/", nil); err != nil {
		t.Fatalf("recovered peer rejected: %v", err)
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe re-opens the breaker
// for another cooldown.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "still down", http.StatusBadGateway)
	}))
	defer srv.Close()
	c := testClient(ClientConfig{Retries: -1, FailureThreshold: 1, Cooldown: 40 * time.Millisecond})
	peer := Member{ID: "p", URL: srv.URL}
	ctx := context.Background()
	if _, err := c.Post(ctx, peer, "/", nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("err = %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Post(ctx, peer, "/", nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("probe err = %v", err)
	}
	if c.Healthy(peer) {
		t.Error("breaker closed after a failed half-open probe")
	}
}

func TestPostContextCanceled(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewClient(ClientConfig{Retries: 5, Rand: func() float64 { return 0 }})
	_, err := c.Post(ctx, Member{ID: "p", URL: srv.URL}, "/", nil)
	if err == nil {
		t.Fatal("canceled context still forwarded")
	}
}

// slowPeer answers only after its caller has hung up (or after a long
// delay), so the caller's own context always ends first.
func slowPeer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestPostCallerCancelIsNotPeerFailure: a caller that gives up mid-forward
// gets its own context error back, and the healthy-but-slow peer's breaker
// stays closed even at a failure threshold of one.
func TestPostCallerCancelIsNotPeerFailure(t *testing.T) {
	peer := Member{ID: "p", URL: slowPeer(t).URL}
	c := testClient(ClientConfig{FailureThreshold: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Post(ctx, peer, "/", nil)
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("err = %v, want the caller's context error", err)
	}
	if !c.Healthy(peer) {
		t.Error("caller cancellation opened the peer's breaker")
	}
}

// TestPostCallerCancelReleasesProbe: a half-open probe whose caller hangs
// up frees the probe slot, so the next call may probe again.
func TestPostCallerCancelReleasesProbe(t *testing.T) {
	var slow atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			<-r.Context().Done()
			return
		}
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer srv.Close()
	c := testClient(ClientConfig{Retries: -1, FailureThreshold: 1, Cooldown: 20 * time.Millisecond})
	peer := Member{ID: "p", URL: srv.URL}
	if _, err := c.Post(context.Background(), peer, "/", nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("err = %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	slow.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Post(ctx, peer, "/", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe err = %v, want the caller's context error", err)
	}
	if !c.acquire(peer, time.Now()) {
		t.Error("a canceled probe kept the half-open slot")
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := ClientConfig{}.withDefaults()
	if cfg.Timeout <= 0 || cfg.Retries != 1 || cfg.BackoffBase <= 0 ||
		cfg.FailureThreshold != 3 || cfg.Cooldown <= 0 || cfg.Transport == nil ||
		cfg.Rand == nil || cfg.Sleep == nil {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if c := (ClientConfig{Retries: -1}).withDefaults(); c.Retries != 0 {
		t.Errorf("Retries -1 should mean no retries, got %d", c.Retries)
	}
}
