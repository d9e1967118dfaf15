package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"wirelesshart/internal/core"
	"wirelesshart/internal/obs"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/spec"
)

// batchItem tracks one scenario of an evaluation through dedup, cache
// lookup, single-flight and the solve.
type batchItem struct {
	spec  *spec.Spec
	key   string
	dupOf int   // index of the earlier identical scenario, or -1
	join  *call // another goroutine's in-flight solve to wait on
	owned *call // the single-flight entry this evaluation registered and must resolve

	res *Result
	err error
}

// EvaluateBatch solves K scenarios in one call, sharing work at every
// tier. Each sub-scenario is canonicalized to its cache key; duplicates
// within the request collapse onto one slot, cached results are returned
// directly, sub-scenarios already being solved elsewhere are joined
// single-flight, and only the residual misses are solved — together, under
// one worker token, each distinct path DTMC once.
//
// Results are indexed like specs and shared (treat them as read-only). The
// call fails as a whole — with the first failing sub-scenario identified —
// but sub-scenarios that did solve are still cached and handed to
// single-flight followers, so partial work is never thrown away.
func (e *Engine) EvaluateBatch(ctx context.Context, specs []*spec.Spec) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadScenario)
	}
	e.metrics.batchRequests.Add(1)
	e.metrics.batchScenarios.Add(int64(len(specs)))
	e.metrics.batchSize.Observe(float64(len(specs)))
	return e.evaluate(ctx, specs, true, true)
}

// evaluate is the one evaluation path: Evaluate and EvaluatePeer are a
// batch of one. forward lets keys owned by another replica go to their
// owner; batch selects the /v1/batch bookkeeping (the "batch" trace, the
// whart_engine_batch_* metrics and per-scenario error prefixes) over the
// single-scenario one (a "solve" trace and the solve-latency histogram).
func (e *Engine) evaluate(ctx context.Context, specs []*spec.Spec, forward, batch bool) ([]*Result, error) {
	fail := func(i int, err error) error {
		if batch {
			return fmt.Errorf("engine: batch scenario %d: %w", i, err)
		}
		return err
	}
	canonStart := time.Now()
	items := make([]*batchItem, len(specs))
	first := make(map[string]int, len(specs))
	todo := make([]*batchItem, 0, len(specs))
	for i, s := range specs {
		key, err := Key(s)
		if err != nil {
			e.metrics.errors.Add(1)
			return nil, fail(i, fmt.Errorf("%w: %v", ErrBadScenario, err))
		}
		it := &batchItem{spec: s, key: key, dupOf: -1}
		if j, ok := first[key]; ok {
			it.dupOf = j
			e.metrics.batchDeduped.Add(1)
		} else {
			first[key] = i
			todo = append(todo, it)
		}
		items[i] = it
	}
	canonDur := time.Since(canonStart)

	for len(todo) > 0 {
		owned, joined := e.claim(todo)
		if forward {
			owned = e.forwardOwned(ctx, owned)
		}
		if len(owned) > 0 {
			e.solveOwned(ctx, owned, batch, canonStart, canonDur)
		}
		// A leader that failed on its own context says nothing about this
		// scenario: while our context is live, join or lead again.
		todo = todo[:0]
		for _, it := range joined {
			select {
			case <-it.join.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if isContextErr(it.join.err) && ctx.Err() == nil {
				todo = append(todo, it)
				continue
			}
			it.res, it.err = it.join.res, it.join.err
		}
	}

	out := make([]*Result, len(items))
	for i, it := range items {
		if it.dupOf >= 0 {
			it.res, it.err = items[it.dupOf].res, items[it.dupOf].err
		}
		if it.err != nil {
			return nil, fail(i, it.err)
		}
		out[i] = it.res
	}
	return out, nil
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// claim makes one atomic pass over the shared state: it serves items from
// the result cache, joins in-flight solves, and registers the remaining
// misses as single-flight entries this evaluation owns.
func (e *Engine) claim(items []*batchItem) (owned, joined []*batchItem) {
	e.mu.Lock()
	for _, it := range items {
		if v, ok := e.cache.get(it.key); ok {
			it.res = v.(*Result)
			e.metrics.cacheHits.Add(1)
			continue
		}
		if c, ok := e.inflight[it.key]; ok {
			it.join = c
			e.metrics.deduped.Add(1)
			joined = append(joined, it)
			continue
		}
		it.owned = &call{done: make(chan struct{})}
		e.inflight[it.key] = it.owned
		owned = append(owned, it)
	}
	e.mu.Unlock()
	e.metrics.cacheMisses.Add(int64(len(owned)))
	return owned, joined
}

// release resolves owned single-flight entries: successes are cached, the
// entries removed, and their followers woken with the outcome.
func (e *Engine) release(items []*batchItem) {
	e.mu.Lock()
	for _, it := range items {
		delete(e.inflight, it.key)
		if it.err == nil {
			e.cache.add(it.key, it.res)
		}
	}
	e.mu.Unlock()
	for _, it := range items {
		it.owned.res, it.owned.err = it.res, it.err
		close(it.owned.done)
	}
}

// forwardOwned sends owned misses that the ring assigns to another replica
// to their owner and releases whatever the forward settles. It returns the
// items left to solve here: the locally owned ones, plus degraded forwards
// whose owner was unreachable or answered garbage — a dead peer must never
// fail a request, so those are solved and cached here until the owner
// returns. A forward that failed because the caller gave up is not
// degraded: a local solve would die on the same context.
func (e *Engine) forwardOwned(ctx context.Context, owned []*batchItem) []*batchItem {
	if e.ring == nil {
		return owned
	}
	local := owned[:0]
	for _, it := range owned {
		if e.ring.IsOwner(it.key) {
			local = append(local, it)
			continue
		}
		res, err := e.forwardSolve(ctx, it.spec, it.key)
		switch {
		case err == nil:
			it.res = res
		case ctx.Err() != nil:
			it.err = ctx.Err()
		default:
			e.metrics.peerDegradedLocal.Add(1)
			local = append(local, it)
			continue
		}
		e.release([]*batchItem{it})
	}
	return local
}

// pathSolve is one distinct path DTMC of a solve: its bound model, the
// (item, path) slots its result fills, the first of which measures it, and
// the outcome of its solve.
type pathSolve struct {
	key   string // core.ProcessKey; "" when an availability override rules out sharing
	model *pathmodel.Model
	refs  []pathRef
	res   *pathmodel.Result
	err   error
}

type pathRef struct{ item, path int }

// solveOwned solves owned misses under one worker token, recording one
// trace: every miss is built through the shared structure cache, each of
// its paths is answered by the path-result memo or becomes one distinct
// solve (paths repeated across the misses are solved once), the solves run
// one after another in first-occurrence order, and each miss's network
// analysis is assembled from its paths' entries. A keyed solve is measured
// once, as its first scenario sees it, and enters the memo with those
// measures. A failed solve fails only the scenarios that reference its
// path. Per-item outcomes land on the items; the single-flight entries are
// always resolved, success or not.
func (e *Engine) solveOwned(ctx context.Context, owned []*batchItem, batch bool, canonStart time.Time, canonDur time.Duration) {
	defer e.release(owned)

	var tr *obs.Trace
	if batch {
		tr = e.traces.StartTrace("batch", "size", strconv.Itoa(len(owned)))
	} else {
		tr = e.traces.StartTrace("solve", "key", owned[0].key)
	}
	tr.RecordSpan("canonicalize", canonStart, canonDur)
	defer func() {
		var err error
		for _, it := range owned {
			if it.err != nil {
				err = it.err
				break
			}
		}
		tr.End(err)
	}()
	ctx = obs.ContextWithTrace(ctx, tr)

	if err := e.acquire(ctx); err != nil {
		for _, it := range owned {
			it.err = err
		}
		return
	}
	defer func() { <-e.sem }()
	e.metrics.inFlight.Add(1)
	defer e.metrics.inFlight.Add(-1)

	start := time.Now()
	builds := make([]*spec.Built, len(owned))
	answers := make([][]*pathEntry, len(owned))
	var solves []*pathSolve
	pending := map[string]*pathSolve{}
	var hits, misses int64
	endBuild := obs.StartSpan(ctx, "build")
	for i, it := range owned {
		built, err := it.spec.BuildWith(core.WithStructureCache(structures{e}), core.WithTracer(tr))
		if err != nil {
			it.err = fmt.Errorf("%w: %v", ErrBadScenario, err)
			e.metrics.errors.Add(1)
			continue
		}
		builds[i] = built
		an := built.Analyzer
		sources := an.Sources()
		answers[i] = make([]*pathEntry, len(sources))
		for p, src := range sources {
			key, shared := an.SourceKey(src)
			if shared {
				if ps, ok := pending[key]; ok {
					hits++
					ps.refs = append(ps.refs, pathRef{i, p})
					continue
				}
				if ent, ok := e.memoGet(key); ok {
					hits++
					answers[i][p] = ent
					continue
				}
				misses++
			}
			m, err := an.BuildPathModel(src)
			if err != nil {
				it.err = fmt.Errorf("engine: solve: path from %d: %w", src, err)
				e.metrics.errors.Add(1)
				break
			}
			ps := &pathSolve{key: key, model: m, refs: []pathRef{{i, p}}}
			solves = append(solves, ps)
			if key != "" {
				pending[key] = ps
			}
		}
	}
	e.metrics.kernelHits.Add(hits)
	e.metrics.kernelMisses.Add(misses)
	endBuild("memo.hits", strconv.FormatInt(hits, 10), "memo.misses", strconv.FormatInt(misses, 10))

	endAnalyze := obs.StartSpan(ctx, "analyze")
	if len(solves) > 0 {
		endSolve := obs.StartSpan(ctx, "solve", "paths", strconv.Itoa(len(solves)))
		for _, ps := range solves {
			ps.res, ps.err = ps.model.Solve()
		}
		endSolve()
	}
	for _, ps := range solves {
		var ent *pathEntry
		if ps.err == nil {
			ent = e.landSolve(ps, builds)
		}
		for _, r := range ps.refs {
			switch {
			case ps.err == nil:
				answers[r.item][r.path] = ent
			case owned[r.item].err == nil:
				owned[r.item].err = fmt.Errorf("engine: solve: %w", ps.err)
				e.metrics.errors.Add(1)
			}
		}
	}

	var solvedItems int64
	for i, it := range owned {
		if it.err != nil {
			continue
		}
		res, err := assemble(it.key, builds[i], answers[i])
		if err != nil {
			it.err = fmt.Errorf("engine: solve: %w", err)
			e.metrics.errors.Add(1)
			continue
		}
		it.res = res
		solvedItems++
	}
	endAnalyze()
	if solvedItems == 0 {
		return
	}
	e.metrics.solves.Add(solvedItems)
	elapsed := time.Since(start)
	if !batch {
		e.metrics.observeLatency(elapsed)
		return
	}
	e.metrics.batchSolved.Add(solvedItems)
	per := (elapsed / time.Duration(solvedItems)).Seconds()
	for i := int64(0); i < solvedItems; i++ {
		e.metrics.batchSubSeconds.Observe(per)
	}
}

// landSolve returns the entry of a freshly solved path. A keyed solve is
// measured as its first scenario sees it and published to the memo; an
// unkeyed one, or one whose measurement failed, gets an entry without
// measures, which each scenario measures itself.
func (e *Engine) landSolve(ps *pathSolve, builds []*spec.Built) *pathEntry {
	if ps.key == "" {
		return solveOnly(ps.res)
	}
	first := ps.refs[0]
	built := builds[first.item]
	an := built.Analyzer
	src := an.Sources()[first.path]
	pa, err := an.MeasurePath(src, ps.res)
	if err != nil {
		return solveOnly(ps.res)
	}
	ent := newPathEntry(pa, an.Fdown(), built.Schedule.SlotsForSource(src))
	e.memoPut(ps.key, ent)
	return ent
}

// assemble derives one scenario's result from its paths' entries: an
// entry measured under the scenario's downlink frame lends its measures,
// with the scenario's own source and route, and any other is measured
// afresh.
func assemble(key string, built *spec.Built, answers []*pathEntry) (*Result, error) {
	an := built.Analyzer
	paths := make([]*core.PathAnalysis, len(answers))
	reused := make([]*pathEntry, len(answers))
	for p, src := range an.Sources() {
		ent := answers[p]
		if ent.fdown == an.Fdown() {
			pa := ent.pa
			pa.Source = src
			pa.Path, _ = an.Route(src)
			paths[p], reused[p] = &pa, ent
			continue
		}
		pa, err := an.MeasurePath(src, ent.pa.Result)
		if err != nil {
			return nil, fmt.Errorf("core: path from %d: %w", src, err)
		}
		paths[p] = pa
	}
	na, err := an.AssemblePaths(paths)
	if err != nil {
		return nil, err
	}
	return assembleResult(key, built, na, reused)
}

// acquire waits for a worker token under a "queue" span, giving up when
// ctx ends first. A dead context never races a free token.
func (e *Engine) acquire(ctx context.Context) error {
	endQueue := obs.StartSpan(ctx, "queue")
	if ctx.Err() == nil {
		select {
		case e.sem <- struct{}{}:
			endQueue()
			return nil
		case <-ctx.Done():
		}
	}
	endQueue("canceled", "true")
	return ctx.Err()
}
