package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceRecordsSpans(t *testing.T) {
	rec := NewRecorder(4)
	tr := rec.StartTrace("solve", "key", "abc", "fup", "20")
	end := tr.StartSpan("structure", "source", "3")
	time.Sleep(time.Millisecond)
	end("cache", "miss")
	end("cache", "dup") // second close must be a no-op
	tr.RecordSpan("canonicalize", time.Now().Add(-time.Millisecond), time.Millisecond)
	tr.End(errors.New("boom"))
	tr.End(nil) // second End must be a no-op

	snap := rec.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("%d traces recorded, want 1", len(snap))
	}
	v := snap[0]
	if v.Name != "solve" || v.Attr("key") != "abc" || v.Attr("fup") != "20" {
		t.Errorf("trace view = %+v", v)
	}
	if v.Error != "boom" {
		t.Errorf("error %q, want boom", v.Error)
	}
	if len(v.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(v.Spans))
	}
	st, ok := v.Span("structure")
	if !ok {
		t.Fatal("structure span missing")
	}
	if st.Attr("source") != "3" || st.Attr("cache") != "miss" {
		t.Errorf("structure span attrs = %+v", st.Attrs)
	}
	if st.Attr("absent") != "" || v.Attr("absent") != "" {
		t.Error("absent attrs must read empty")
	}
	if st.DurUS <= 0 {
		t.Errorf("structure span duration %dus, want > 0", st.DurUS)
	}
	if _, ok := v.Span("nope"); ok {
		t.Error("Span(nope) found a span")
	}
	if rec.Total() != 1 {
		t.Errorf("Total() = %d, want 1", rec.Total())
	}
}

func TestTraceEndedIsFrozen(t *testing.T) {
	rec := NewRecorder(2)
	tr := rec.StartTrace("op")
	tr.End(nil)
	tr.RecordSpan("late", time.Now(), time.Millisecond)
	if end := tr.StartSpan("late2"); end != nil {
		end()
	}
	if v := rec.Snapshot()[0]; len(v.Spans) != 0 || len(v.Attrs) != 0 {
		t.Errorf("post-End writes leaked into the view: %+v", v)
	}
	if rec.Total() != 1 {
		t.Errorf("Total() = %d, want 1 (End twice must record once)", rec.Total())
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	if tr.Name() != "" {
		t.Error("nil trace name")
	}
	tr.StartSpan("s", "a", "b")("c", "d")
	tr.RecordSpan("s", time.Now(), time.Second)
	tr.End(nil)

	var rec *Recorder
	if got := rec.StartTrace("x"); got != nil {
		t.Error("nil recorder returned a trace")
	}
	rec.SetLogger(slog.Default())
	rec.Flush()
	if rec.Snapshot() != nil || rec.Total() != 0 {
		t.Error("nil recorder snapshot not empty")
	}
}

func TestRecorderRingEvictsOldest(t *testing.T) {
	rec := NewRecorder(3)
	for i := 0; i < 5; i++ {
		rec.StartTrace(fmt.Sprintf("t%d", i)).End(nil)
	}
	snap := rec.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("%d traces retained, want 3", len(snap))
	}
	for i, want := range []string{"t4", "t3", "t2"} { // newest first
		if snap[i].Name != want {
			t.Errorf("snapshot[%d] = %s, want %s", i, snap[i].Name, want)
		}
	}
	if rec.Total() != 5 {
		t.Errorf("Total() = %d, want 5", rec.Total())
	}
}

func TestRecorderDefaultCapacity(t *testing.T) {
	rec := NewRecorder(0)
	for i := 0; i < DefaultTraceCapacity+5; i++ {
		rec.StartTrace("t").End(nil)
	}
	if got := len(rec.Snapshot()); got != DefaultTraceCapacity {
		t.Errorf("retained %d, want %d", got, DefaultTraceCapacity)
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines — the
// -race guarantee the engine relies on when solves trace concurrently.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr := rec.StartTrace("solve", "worker", fmt.Sprint(i))
				var inner sync.WaitGroup
				for s := 0; s < 4; s++ {
					inner.Add(1)
					go func(s int) { // spans may be recorded concurrently
						defer inner.Done()
						end := tr.StartSpan(fmt.Sprintf("stage%d", s))
						end("ok", "1")
					}(s)
				}
				inner.Wait()
				tr.End(nil)
				_ = rec.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	if got := rec.Total(); got != 800 {
		t.Errorf("Total() = %d, want 800", got)
	}
	for _, v := range rec.Snapshot() {
		if len(v.Spans) != 4 {
			t.Errorf("trace has %d spans, want 4", len(v.Spans))
		}
	}
}

func TestContextPropagation(t *testing.T) {
	rec := NewRecorder(2)
	tr := rec.StartTrace("op")
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	StartSpan(ctx, "stage")("done", "yes")
	StartSpan(context.Background(), "orphan")() // no trace in ctx: no-op
	tr.End(nil)
	v := rec.Snapshot()[0]
	if _, ok := v.Span("stage"); !ok {
		t.Error("ctx-started span missing")
	}
	if _, ok := v.Span("orphan"); ok {
		t.Error("orphan span recorded without a trace")
	}
}

func TestRecorderLoggerAndFlush(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	safe := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	rec := NewRecorder(2)
	rec.SetLogger(slog.New(slog.NewJSONHandler(safe, nil)))

	tr := rec.StartTrace("solve", "key", "k1")
	tr.StartSpan("analyze")()
	tr.End(nil)
	rec.StartTrace("solve").End(errors.New("bad"))
	rec.Flush()

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 3 {
		t.Fatalf("%d log lines, want 3 (two traces + flush)", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if first["msg"] != "trace" || first["key"] != "k1" {
		t.Errorf("first record = %v", first)
	}
	if _, ok := first["span.analyze.durUS"]; !ok {
		t.Errorf("span timing missing from %v", first)
	}
	if !strings.Contains(lines[1], `"level":"WARN"`) || !strings.Contains(lines[1], `"error":"bad"`) {
		t.Errorf("errored trace not logged as WARN with error: %s", lines[1])
	}
	if !strings.Contains(lines[2], "traces flushed") {
		t.Errorf("flush record missing: %s", lines[2])
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestTracesHandler(t *testing.T) {
	rec := NewRecorder(4)
	tr := rec.StartTrace("solve", "key", "k")
	tr.StartSpan("bind")("cache", "hit")
	tr.End(nil)
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var body struct {
		Total  uint64      `json:"total"`
		Traces []TraceView `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Total != 1 || len(body.Traces) != 1 {
		t.Fatalf("body = %+v", body)
	}
	if s, ok := body.Traces[0].Span("bind"); !ok || s.Attr("cache") != "hit" {
		t.Errorf("bind span lost through JSON: %+v", body.Traces[0])
	}

	post, err := http.Post(srv.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d, want 405", post.StatusCode)
	}
}

func TestAttrsFromOddCount(t *testing.T) {
	got := attrsFrom([]string{"a", "1", "b"})
	want := []Attr{{Key: "a", Value: "1"}, {Key: "b"}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("attrsFrom = %+v, want %+v", got, want)
	}
	if attrsFrom(nil) != nil {
		t.Error("attrsFrom(nil) != nil")
	}
}
