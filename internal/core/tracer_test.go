package core

import (
	"strings"
	"sync"
	"testing"
)

// recordingTracer implements Tracer, collecting "name|k=v,..." strings.
type recordingTracer struct {
	mu    sync.Mutex
	spans []string
}

func (r *recordingTracer) StartSpan(name string, attrs ...string) func(attrs ...string) {
	return func(endAttrs ...string) {
		var sb strings.Builder
		sb.WriteString(name)
		all := append(append([]string(nil), attrs...), endAttrs...)
		for i := 0; i+1 < len(all); i += 2 {
			sb.WriteByte('|')
			sb.WriteString(all[i] + "=" + all[i+1])
		}
		r.mu.Lock()
		r.spans = append(r.spans, sb.String())
		r.mu.Unlock()
	}
}

func (r *recordingTracer) count(substr string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if strings.Contains(s, substr) {
			n++
		}
	}
	return n
}

// TestAnalyzeEmitsStageSpans pins the Tracer hook: a full analysis must
// report every pipeline stage, with structure-cache outcomes visible —
// the first geometry misses, repeated geometries hit the analyzer's
// private structure cache.
func TestAnalyzeEmitsStageSpans(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	tr := &recordingTracer{}
	a, err := New(net, etaA, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	if got := tr.count("structure|cache=miss"); got == 0 {
		t.Error("no structure-cache miss recorded on a cold analyzer")
	}
	for _, stage := range []string{"bind|source=", "solve|source=", "measures|source=", "measures|scope=network"} {
		if tr.count(stage) == 0 {
			t.Errorf("stage %q never recorded", stage)
		}
	}
	// 10 sources: each binds and solves exactly once.
	if got := tr.count("solve|source="); got != 10 {
		t.Errorf("%d solve spans, want 10", got)
	}
	// A second analysis reuses every geometry from the private cache.
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
	if got := tr.count("structure|cache=hit"); got != 10 {
		t.Errorf("%d structure hits after re-analysis, want 10", got)
	}
}

// TestAnalyzeWithoutTracerIsSilent guards the zero-cost default: the
// shared no-op closer must be handed out and never panic.
func TestAnalyzeWithoutTracerIsSilent(t *testing.T) {
	net, _, etaA := typicalSetup(t)
	a, err := New(net, etaA)
	if err != nil {
		t.Fatal(err)
	}
	end := a.span("anything", "k", "v")
	end("k2", "v2")
	if _, err := a.Analyze(); err != nil {
		t.Fatal(err)
	}
}
