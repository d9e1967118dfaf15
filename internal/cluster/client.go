package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrPeerUnavailable marks a forward that never reached a healthy peer:
// the breaker was open, or every attempt failed. Callers degrade to a
// local solve on it — a dead peer must never fail a request.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// ClientConfig tunes the peer-forwarding client. The zero value is usable:
// every field has a conservative default.
type ClientConfig struct {
	// Timeout bounds each attempt against a peer. Default 2s: a forward
	// is only worth a small multiple of the solve it saves.
	Timeout time.Duration
	// Retries is the number of re-attempts after the first failure
	// (bounded retry; total attempts = Retries+1). Default 1.
	Retries int
	// BackoffBase is the pause before retry n, scaled by 2^n and jittered
	// uniformly in [0.5x, 1.5x]. Default 25ms.
	BackoffBase time.Duration
	// FailureThreshold is the consecutive-failure count that opens a
	// peer's breaker. Default 3.
	FailureThreshold int
	// Cooldown is how long an open breaker rejects forwards before
	// letting a half-open probe through. Default 5s.
	Cooldown time.Duration
	// Transport overrides the HTTP transport (tests). Default
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Rand supplies jitter in [0,1) (tests). Default math/rand.
	Rand func() float64
	// Sleep pauses between retries (tests). Default a context-aware
	// time.Sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.Rand == nil {
		c.Rand = rand.Float64
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return c
}

// breaker is one peer's failure-counting circuit breaker. Consecutive
// failures at or past the threshold open it for a cooldown; after the
// cooldown one probe is let through (half-open) and its outcome closes or
// re-opens the breaker.
type breaker struct {
	failures  int
	openUntil time.Time
	probing   bool // a half-open probe is in flight
}

// Client forwards requests to peer replicas with per-attempt timeouts,
// bounded jittered retries, and a per-peer breaker. Safe for concurrent
// use.
type Client struct {
	cfg ClientConfig
	hc  *http.Client

	mu       sync.Mutex
	breakers map[string]*breaker
}

// NewClient returns a forwarding client with cfg's policies (zero fields
// defaulted).
func NewClient(cfg ClientConfig) *Client {
	cfg = cfg.withDefaults()
	return &Client{
		cfg:      cfg,
		hc:       &http.Client{Transport: cfg.Transport},
		breakers: map[string]*breaker{},
	}
}

// acquire consults peer's breaker: closed and half-open states admit the
// call, open rejects it.
func (c *Client) acquire(peer Member, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.breakers[peer.ID]
	if !ok {
		b = &breaker{}
		c.breakers[peer.ID] = b
	}
	if b.failures < c.cfg.FailureThreshold {
		return true
	}
	if now.Before(b.openUntil) || b.probing {
		return false
	}
	b.probing = true // half-open: admit exactly one probe
	return true
}

// settle records the outcome of an admitted call.
func (c *Client) settle(peer Member, err error, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[peer.ID]
	b.probing = false
	if err == nil {
		b.failures = 0
		return
	}
	b.failures++
	if b.failures >= c.cfg.FailureThreshold {
		b.openUntil = now.Add(c.cfg.Cooldown)
	}
}

// release ends an admitted call without an outcome: a half-open probe
// slot is freed and the failure count left as it was.
func (c *Client) release(peer Member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.breakers[peer.ID].probing = false
}

// Healthy reports whether peer's breaker currently admits forwards.
func (c *Client) Healthy(peer Member) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.breakers[peer.ID]
	if !ok || b.failures < c.cfg.FailureThreshold {
		return true
	}
	return !time.Now().Before(b.openUntil)
}

// Post sends body as JSON to path on peer and returns the response body.
// It makes up to Retries+1 attempts, each under its own timeout, backing
// off with jitter in between; transport errors and 5xx responses are
// retried, any other HTTP status is returned to the caller as a terminal
// error. When the peer's breaker is open, or every attempt fails, the
// returned error wraps ErrPeerUnavailable. When ctx ends first, Post
// returns ctx's error and counts nothing against the peer: a caller that
// hangs up says nothing about the peer's health.
func (c *Client) Post(ctx context.Context, peer Member, path string, body []byte) ([]byte, error) {
	if peer.URL == "" {
		return nil, fmt.Errorf("%w: member %q has no URL", ErrPeerUnavailable, peer.ID)
	}
	if !c.acquire(peer, time.Now()) {
		return nil, fmt.Errorf("%w: breaker open for %q", ErrPeerUnavailable, peer.ID)
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			backoff := c.cfg.BackoffBase << (attempt - 1)
			jittered := time.Duration(float64(backoff) * (0.5 + c.cfg.Rand()))
			if err := c.cfg.Sleep(ctx, jittered); err != nil {
				c.release(peer)
				return nil, err
			}
		}
		out, retryable, err := c.attempt(ctx, peer, path, body)
		if err == nil {
			c.settle(peer, nil, time.Now())
			return out, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			c.release(peer)
			return nil, ctxErr
		}
		if !retryable {
			// The peer is up and answered: its refusal (a 4xx) is the
			// request's problem, not the peer's health.
			c.settle(peer, nil, time.Now())
			return nil, err
		}
		lastErr = err
	}
	c.settle(peer, lastErr, time.Now())
	return nil, fmt.Errorf("%w: %q: %v", ErrPeerUnavailable, peer.ID, lastErr)
}

// attempt is one bounded try against peer. retryable distinguishes peer
// failures (transport errors, 5xx) from answered refusals.
func (c *Client) attempt(ctx context.Context, peer Member, path string, body []byte) (out []byte, retryable bool, err error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, peer.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResponseBytes))
	if err != nil {
		return nil, true, err
	}
	if resp.StatusCode >= 500 {
		return nil, true, fmt.Errorf("peer %s: status %d: %s", peer.ID, resp.StatusCode, firstLine(data))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("peer %s: status %d: %s", peer.ID, resp.StatusCode, firstLine(data))
	}
	return data, false, nil
}

// maxPeerResponseBytes bounds a peer response; solved results with full
// delay distributions stay far under this.
const maxPeerResponseBytes = 32 << 20

// firstLine trims an error body for diagnostics.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}
