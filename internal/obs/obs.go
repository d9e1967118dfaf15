// Package obs is the repository's lightweight observability layer:
// span-based tracing recorded into a bounded in-memory ring (exported over
// HTTP and optionally as structured slog records) and a small
// Prometheus-compatible metrics registry. It uses only the standard
// library, so every binary in this module can afford it.
//
// Tracing model: a Trace represents one logical operation (for the
// evaluation engine, one scenario solve). Stages inside the operation are
// flat Spans — named, timed, and annotated with string attributes. Spans
// may overlap; each records its offset from the trace start, so nested
// stages remain legible without a parent pointer. Trace.StartSpan is
// shaped exactly like core.Tracer, letting packages that must not depend
// on obs receive a *Trace through their own one-method interface.
package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or trace.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// attrsFrom pairs up alternating key, value strings; a trailing key
// without a value gets an empty value rather than being dropped.
func attrsFrom(kv []string) []Attr {
	if len(kv) == 0 {
		return nil
	}
	attrs := make([]Attr, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		a := Attr{Key: kv[i]}
		if i+1 < len(kv) {
			a.Value = kv[i+1]
		}
		attrs = append(attrs, a)
	}
	return attrs
}

// span is one recorded stage; it is immutable once its end function ran.
type span struct {
	name  string
	start time.Time
	dur   time.Duration
	attrs []Attr
}

// Trace collects the spans of one operation and publishes itself to its
// Recorder when ended. All methods are safe for concurrent use and on a
// nil receiver (every call becomes a no-op), so instrumented code never
// needs to guard call sites.
type Trace struct {
	name  string
	start time.Time
	rec   *Recorder

	mu    sync.Mutex
	attrs []Attr
	spans []span
	ended bool
}

// Name returns the trace's operation name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// StartSpan opens a named stage span with alternating key, value
// attributes and returns the function that closes it; the close function
// may append further attributes learned while the stage ran (a cache
// outcome, a result size). Closing twice or after the trace ended is a
// no-op. The signature deliberately matches core.Tracer so a *Trace can
// be passed to dependency-free packages as their tracing hook.
func (t *Trace) StartSpan(name string, kv ...string) func(kv ...string) {
	if t == nil {
		return func(...string) {}
	}
	start := time.Now()
	attrs := attrsFrom(kv)
	var once sync.Once
	return func(endKV ...string) {
		once.Do(func() {
			t.RecordSpan(name, start, time.Since(start), append(attrs, attrsFrom(endKV)...)...)
		})
	}
}

// RecordSpan adds an already-timed span — a stage measured before the
// trace existed, or timed by the caller itself.
func (t *Trace) RecordSpan(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ended {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, dur: d, attrs: attrs})
}

// End closes the trace, stamping err when non-nil, and hands the finished
// view to the Recorder's ring (and logger, when configured). Only the
// first End has any effect.
func (t *Trace) End(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.ended {
		t.mu.Unlock()
		return
	}
	t.ended = true
	v := TraceView{
		Name:  t.name,
		Start: t.start,
		DurUS: time.Since(t.start).Microseconds(),
		Attrs: t.attrs,
		Spans: make([]SpanView, len(t.spans)),
	}
	if err != nil {
		v.Error = err.Error()
	}
	for i, s := range t.spans {
		v.Spans[i] = SpanView{
			Name:     s.name,
			OffsetUS: s.start.Sub(t.start).Microseconds(),
			DurUS:    s.dur.Microseconds(),
			Attrs:    s.attrs,
		}
	}
	rec := t.rec
	t.mu.Unlock()
	if rec != nil {
		rec.record(v)
	}
}

// ctxKey keys the active *Trace in a context.
type ctxKey struct{}

// ContextWithTrace returns ctx carrying the trace.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// StartSpan opens a span on the trace carried by ctx and returns the
// close function. Without a trace in ctx it returns a no-op, so call
// sites never need to check.
func StartSpan(ctx context.Context, name string, kv ...string) func(kv ...string) {
	return TraceFrom(ctx).StartSpan(name, kv...)
}
