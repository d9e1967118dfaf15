package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"wirelesshart/internal/cluster"
	"wirelesshart/internal/core"
	"wirelesshart/internal/engine"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/spec"
)

// handlerTiming is the traced run's wrapper around replica 0's handler:
// server-side ServeHTTP time and body sizes of every request.
type handlerTiming struct {
	mu        sync.Mutex
	us        []float64
	reqBytes  int64
	respBytes int64
}

func (t *handlerTiming) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(start)
		t.mu.Lock()
		t.us = append(t.us, micros(d))
		t.reqBytes += max(r.ContentLength, 0)
		t.respBytes += cw.n
		t.mu.Unlock()
	})
}

// reset forgets the set-up traffic.
func (t *handlerTiming) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.us, t.reqBytes, t.respBytes = nil, 0, 0
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// spanLog is the benchmark's core.Tracer: it keeps the duration of every
// span core emits, by span name ("structure" spans by cache outcome too,
// "measures" split into per-path and network scope).
type spanLog struct {
	mu    sync.Mutex
	spans map[string][]float64 // µs
}

func newSpanLog() *spanLog { return &spanLog{spans: map[string][]float64{}} }

func (t *spanLog) StartSpan(name string, attrs ...string) func(attrs ...string) {
	start := time.Now()
	return func(end ...string) {
		d := time.Since(start)
		key := name
		switch name {
		case "structure":
			key += "/" + attr(end, "cache")
		case "measures":
			if attr(attrs, "scope") != "" {
				key += "/network"
			}
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[key] = append(t.spans[key], micros(d))
	}
}

func (t *spanLog) median(key string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.spans[key])
}

func (t *spanLog) count(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans[key])
}

func attr(kv []string, key string) string {
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i] == key {
			return kv[i+1]
		}
	}
	return ""
}

// structCache is the ladder's core.StructureCache.
type structCache struct {
	mu sync.Mutex
	m  map[string]*pathmodel.Structure
}

func (c *structCache) GetStructure(key string) (*pathmodel.Structure, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.m[key]
	return s, ok
}

func (c *structCache) PutStructure(key string, s *pathmodel.Structure) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = s
}

// ladderStats holds per-request stage times (µs) over the sample.
type ladderStats struct {
	parse, key, build, analyze []float64 // pass 1, miss path
	hit, codec, post           []float64 // pass 2, hit path
	solveBatchPerModel         []float64 // one value per structure group
	paths, states              int       // pass 2 path and state totals
	spans                      *spanLog
}

// runLadder drives the workload's sample through each layer in turn on a
// single goroutine, twice. Pass 1 starts from an empty structure cache and
// times the miss path: spec.Parse, engine.Key, BuildWith and the solve
// (Analyze, or PathModels + SolveBatch + AssembleAnalysis for batches),
// as the engine runs them on a miss; every structure miss happens here.
// Pass 2 rebuilds on the now warm cache and solves again under the tracer,
// adding bind, solve and measures spans free of Algorithm 1, times one
// SolveBatch per structure group, then times the hit path on the ladder
// engine: Evaluate, ServeHTTP through httptest, and a peer-protocol post
// of a scenario the engine already holds.
func runLadder(w *workload, d *deployment) (*ladderStats, error) {
	ctx := context.Background()
	spans := newSpanLog()
	cache := &structCache{m: map[string]*pathmodel.Structure{}}
	st := &ladderStats{spans: spans}
	parsed := make([][]*spec.Spec, len(w.sample))

	for i, r := range w.sample {
		var parse, key, build time.Duration
		builts := make([]*spec.Built, len(r.scns))
		for j, s := range r.scns {
			t := time.Now()
			p, err := spec.Parse(bytes.NewReader(s.json))
			parse += time.Since(t)
			if err != nil {
				return nil, err
			}
			parsed[i] = append(parsed[i], p)
			t = time.Now()
			_, err = engine.Key(p)
			key += time.Since(t)
			if err != nil {
				return nil, err
			}
			t = time.Now()
			b, err := p.BuildWith(core.WithStructureCache(cache), core.WithTracer(spans))
			build += time.Since(t)
			if err != nil {
				return nil, err
			}
			builts[j] = b
		}
		t := time.Now()
		var err error
		if w.batch {
			err = solveGrouped(builts, true, nil)
		} else {
			_, err = builts[0].Analyzer.Analyze()
		}
		analyze := time.Since(t)
		if err != nil {
			return nil, err
		}
		st.parse = append(st.parse, micros(parse))
		st.key = append(st.key, micros(key))
		st.build = append(st.build, micros(build))
		st.analyze = append(st.analyze, micros(analyze))
	}

	peer := cluster.NewClient(cluster.ClientConfig{})
	self := cluster.Member{ID: "ladder", URL: d.url}
	for i, r := range w.sample {
		builts := make([]*spec.Built, len(parsed[i]))
		for j, p := range parsed[i] {
			b, err := p.BuildWith(core.WithStructureCache(cache), core.WithTracer(spans))
			if err != nil {
				return nil, err
			}
			builts[j] = b
			if _, err := b.Analyzer.Analyze(); err != nil {
				return nil, err
			}
		}
		if err := solveGrouped(builts, false, st); err != nil {
			return nil, err
		}

		// Fill the ladder engine untimed, then time the hit path.
		if code := serve(d.handlers[0], r); code != http.StatusOK {
			return nil, fmt.Errorf("ladder: %s answered %d", r.path, code)
		}
		t := time.Now()
		var err error
		if w.batch {
			_, err = d.engines[0].EvaluateBatch(ctx, parsed[i])
		} else {
			_, err = d.engines[0].Evaluate(ctx, parsed[i][0])
		}
		hit := micros(time.Since(t))
		if err != nil {
			return nil, err
		}
		t = time.Now()
		code := serve(d.handlers[0], r)
		served := micros(time.Since(t))
		if code != http.StatusOK {
			return nil, fmt.Errorf("ladder: %s answered %d", r.path, code)
		}
		st.hit = append(st.hit, hit)
		st.codec = append(st.codec, served-st.parse[i]-hit)

		body, err := json.Marshal(map[string]any{"key": r.scns[0].key, "scenario": json.RawMessage(r.scns[0].json)})
		if err != nil {
			return nil, err
		}
		t = time.Now()
		_, err = peer.Post(ctx, self, engine.PeerSolvePath, body)
		st.post = append(st.post, micros(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("ladder: peer post: %w", err)
		}
	}
	return st, nil
}

// serve runs one request through the handler in memory.
func serve(h http.Handler, r *request) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
	return rec.Code
}

// solveGrouped solves the built scenarios the way the engine's batch path
// does: every path model grouped by shared structure in first-occurrence
// order, one SolveBatch per group. With assemble it also derives each
// scenario's analysis. st, when non-nil, receives each group's SolveBatch
// time per model and the path and state counts.
func solveGrouped(builts []*spec.Built, assemble bool, st *ladderStats) error {
	type ref struct{ scn, path int }
	sms := make([][]core.SourceModel, len(builts))
	results := make([][]*pathmodel.Result, len(builts))
	var order []*pathmodel.Structure
	groups := map[*pathmodel.Structure][]ref{}
	for i, b := range builts {
		var err error
		if sms[i], err = b.Analyzer.PathModels(); err != nil {
			return err
		}
		results[i] = make([]*pathmodel.Result, len(sms[i]))
		for p, sm := range sms[i] {
			g := sm.Model.Structure()
			if _, ok := groups[g]; !ok {
				order = append(order, g)
			}
			groups[g] = append(groups[g], ref{i, p})
			if st != nil {
				st.paths++
				st.states += sm.Model.NumStates()
			}
		}
	}
	for _, g := range order {
		refs := groups[g]
		models := make([]*pathmodel.Model, len(refs))
		for k, r := range refs {
			models[k] = sms[r.scn][r.path].Model
		}
		t := time.Now()
		batch, err := pathmodel.SolveBatch(models)
		if st != nil {
			st.solveBatchPerModel = append(st.solveBatchPerModel, micros(time.Since(t))/float64(len(models)))
		}
		if err != nil {
			return err
		}
		for k, r := range refs {
			results[r.scn][r.path] = batch[k]
		}
	}
	if !assemble {
		return nil
	}
	for i, b := range builts {
		if _, err := b.Analyzer.AssembleAnalysis(results[i]); err != nil {
			return err
		}
	}
	return nil
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// median of an unsorted sample; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
