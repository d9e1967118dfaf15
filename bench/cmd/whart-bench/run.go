package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"wirelesshart/internal/engine"
	"wirelesshart/internal/spec"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	scale    float64
}

// keepEvery samples the responses that are re-solved after the timed
// phase.
const keepEvery = 50

// setups is how many times an untraced run sets up; setup_s is the median.
const setups = 3

// runWorkload generates the workload's inputs, sets up, measures for the
// configured duration and checks the answers. An untraced run reports
// the end-to-end metrics; a traced run repeats the untraced measurement
// for half the duration, then replays a prefix behind the timing wrapper
// and drives the ladder, and reports the per-layer metrics.
func runWorkload(cfg runConfig, log io.Writer) (*runResult, error) {
	ws, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	start := time.Now()
	w, err := ws.build(cfg.seed, cfg.scale)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", cfg.workload, err)
	}
	fmt.Fprintf(log, "%s seed=%d: inputs generated in %.3fs\n", w.name, cfg.seed, time.Since(start).Seconds())
	typical, err := newScenario(spec.TypicalSpec())
	if err != nil {
		return nil, err
	}
	anchor := networkRequest(typical)
	heapBase := liveHeap()

	clients, n := runtime.NumCPU(), setups
	if cfg.trace {
		n = 1
	}
	var d *deployment
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	setupS := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		if d != nil {
			err := d.close()
			d = nil
			if err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = setUp(w, clients, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	// A traced run gives the counter phase half its time; the replay and
	// the ladder take about the other half.
	timed := cfg.duration
	if cfg.trace {
		timed /= 2
	}
	// Collect the set-up garbage now rather than inside the timed phase.
	runtime.GC()
	before := d.engines[0].MetricsSnapshot()
	cpu0 := cpuTime()
	st := d.drive(loop{seq: w.seq, deadline: time.Now().Add(timed), keepEvery: keepEvery, prefix: w.prefix})
	cpu := cpuTime() - cpu0
	after := d.engines[0].MetricsSnapshot()

	res := &runResult{Attempted: st.attempted + 1, Failed: st.failed}
	report := func(err error) {
		res.Failed++
		fmt.Fprintf(log, "FAIL %v\n", err)
	}
	if st.firstErr != nil {
		fmt.Fprintf(log, "FAIL %d requests; first: %v\n", st.failed, st.firstErr)
	}
	start = time.Now()
	for _, err := range checkAnswers(st.kept) {
		report(err)
	}
	clear(st.kept) // release the bodies before the heap is read
	var buf bytes.Buffer
	if code, err := post(d.clients[0], d.url+anchor.path, anchor.body, &buf); err != nil || code != http.StatusOK {
		report(fmt.Errorf("anchors: status %d: %v", code, err))
	} else if err := checkAnchors(buf.Bytes()); err != nil {
		report(err)
	}
	fmt.Fprintf(log, "%s seed=%d: %d requests in %.3fs, %d checked in %.3fs, %d failed\n",
		w.name, cfg.seed, st.attempted, st.elapsed.Seconds(), len(st.kept)+1, time.Since(start).Seconds(), res.Failed)
	res.Correct = res.Failed == 0
	ok200 := st.attempted - st.failed

	m := newMetricSet()
	if !cfg.trace {
		n := len(st.latMS)
		m.set("throughput_rps", float64(ok200)/st.elapsed.Seconds(), fmt.Sprintf("(%d requests)", ok200))
		m.set("p50_ms", quantile(st.latMS, 0.5), fmt.Sprintf("(n=%d)", n))
		m.set("p95_ms", quantile(st.latMS, 0.95), fmt.Sprintf("(n=%d, %d beyond)", n, n-int(0.95*float64(n))))
		m.set("cpu_ms_per_req", float64(cpu)/1e6/float64(st.attempted), "")
		m.set("setup_s", median(setupS), fmt.Sprintf("(median of %.3f)", setupS))
		return res, m.result(res, endToEnd, log)
	}

	// The inputs stay live, so the difference is what serving retains.
	m.set("engine.heap_retained_mb", float64(liveHeap()-heapBase)/1e6, "")
	runtime.KeepAlive(w)
	runtime.KeepAlive(anchor)
	engineLayer(m, before, after, st.attempted)
	err = d.close()
	d = nil
	if err != nil {
		return nil, err
	}
	if err := replay(w, clients, st, m); err != nil {
		return nil, err
	}
	ld, err := deploy(1, 0, nil)
	if err != nil {
		return nil, err
	}
	lst, err := runLadder(w, ld)
	if cerr := ld.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	ladderLayer(m, w, lst)
	return res, m.result(res, perLayer, log)
}

// setUp deploys the workload's replicas and brings them to steady state:
// the prefill in order, then the warm-up traffic from all clients.
func setUp(w *workload, clients int, wrap func(http.Handler) http.Handler) (*deployment, error) {
	d, err := deploy(max(w.replicas, 1), clients, wrap)
	if err != nil {
		return nil, err
	}
	for _, pass := range [][]*request{w.prefill, w.warm} {
		if len(pass) == 0 {
			continue
		}
		if st := d.drive(loop{seq: pass, limit: len(pass)}); st.failed > 0 {
			return nil, errors.Join(fmt.Errorf("set-up: %d of %d requests failed: %w", st.failed, st.attempted, st.firstErr), d.close())
		}
	}
	return d, nil
}

// engineLayer derives the engine and cluster metrics from replica 0's
// counters over the timed phase.
func engineLayer(m *metricSet, before, after engine.Snapshot, requests int) {
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	misses := after.CacheMisses - before.CacheMisses
	m.set("engine.cache_hit_ratio", ratio(after.CacheHits-before.CacheHits, misses), "")
	m.set("engine.dedup_joins", float64(after.Deduped-before.Deduped), "")
	m.set("engine.struct_cache_hit_ratio", ratio(after.StructCacheHits-before.StructCacheHits, after.StructCacheMisses-before.StructCacheMisses), "")
	m.set("engine.kernel_cache_hit_ratio", ratio(after.KernelCacheHits-before.KernelCacheHits, after.KernelCacheMisses-before.KernelCacheMisses), "")
	m.set("engine.solves_per_req", float64(after.Solves-before.Solves)/float64(requests), "")
	// Scalar solves when the workload has any, else the batch path's
	// per-sub-scenario time; both histograms include set-up.
	solve := after.SolveTime
	if solve.Count == 0 {
		solve = after.BatchSubSolveTime
	}
	m.set("engine.solve_ms_p50", solve.P50MS, fmt.Sprintf("(n=%d)", solve.Count))
	m.set("engine.batch_dedup_ratio", after.BatchDedupRatio, "")
	forwardRatio := 0.0
	if misses > 0 {
		forwardRatio = float64(after.PeerForwarded-before.PeerForwarded) / float64(misses)
	}
	m.set("cluster.forward_ratio", forwardRatio, "")
	m.set("cluster.degraded_local", float64(after.PeerDegradedLocal-before.PeerDegradedLocal), "")
}

// replay serves the first requests of the timed sequence again, on a
// fresh deployment set up the same way, behind the timing wrapper; the
// untraced pass recorded its elapsed time at the same index.
func replay(w *workload, clients int, untraced passStats, m *metricSet) error {
	n, base := w.prefix, untraced.atPrefix
	if base == 0 {
		// The timed phase ended before the prefix; replay all it did.
		n, base = untraced.attempted, untraced.elapsed
	}
	timing := &handlerTiming{}
	d, err := setUp(w, clients, timing.wrap)
	if err != nil {
		return err
	}
	timing.reset()
	runtime.GC()
	st := d.drive(loop{seq: w.seq, limit: n})
	if err := d.close(); err != nil {
		return err
	}
	if st.failed > 0 {
		return fmt.Errorf("replay: %d of %d requests failed: %w", st.failed, st.attempted, st.firstErr)
	}
	timing.mu.Lock()
	defer timing.mu.Unlock()
	handler := median(timing.us)
	served := float64(len(timing.us))
	m.set("http.handler_us", handler, fmt.Sprintf("(n=%d)", len(timing.us)))
	m.set("http.transport_us", quantile(st.latMS, 0.5)*1e3-handler, "")
	m.set("http.req_kb", float64(timing.reqBytes)/served/1e3, "")
	m.set("http.resp_kb", float64(timing.respBytes)/served/1e3, "")
	m.set("trace.overhead_frac", 1-base.Seconds()/st.elapsed.Seconds(), fmt.Sprintf("(%d requests)", n))
	return nil
}

// ladderLayer turns the ladder's stage times into per-layer metrics.
func ladderLayer(m *metricSet, w *workload, st *ladderStats) {
	n := fmt.Sprintf("(n=%d)", len(w.sample))
	parse, key, build, analyze := median(st.parse), median(st.key), median(st.build), median(st.analyze)
	hit, codec := median(st.hit), median(st.codec)
	m.set("spec.parse_us", parse, n)
	m.set("engine.key_us", key, n)
	m.set("spec.build_us", build, n)
	m.set("core.analyze_us", analyze, n)
	m.set("engine.evaluate_hit_us", hit, n)
	m.set("http.codec_us", codec, n)
	m.set("cluster.post_us", median(st.post), n)
	for _, s := range []struct{ metric, span string }{
		{"pathmodel.structure_us", "structure/miss"},
		{"pathmodel.bind_us", "bind"},
		{"pathmodel.solve_us", "solve"},
		{"core.measures_us", "measures"},
	} {
		m.set(s.metric, st.spans.median(s.span), fmt.Sprintf("(n=%d spans)", st.spans.count(s.span)))
	}
	m.set("pathmodel.solve_batch_us_per_model", median(st.solveBatchPerModel), fmt.Sprintf("(n=%d groups)", len(st.solveBatchPerModel)))
	m.set("pathmodel.paths_per_req", float64(st.paths)/float64(len(w.sample)), "")
	m.set("pathmodel.states_per_path", float64(st.states)/float64(max(st.paths, 1)), "")
	// The median request is a hit when most lookups in the timed phase
	// hit; the ladder explains it by the hit path, otherwise by the miss
	// path.
	explained := parse + key + build + analyze + codec
	if m.values["engine.cache_hit_ratio"] >= 0.5 {
		explained = parse + hit + codec
	}
	m.set("ladder.explained_frac", explained/m.values["http.handler_us"], "")
}

// checkAnswers re-solves every retained response's scenarios on one
// goroutine per CPU and returns the mismatches. Responses that start with
// the same scenario go to the same goroutine, so a hot scenario is solved
// once.
func checkAnswers(ks []kept) []error {
	workers := runtime.NumCPU()
	shard := map[*scenario]int{}
	parts := make([][]kept, workers)
	for _, k := range ks {
		s := k.req.scns[0]
		i, ok := shard[s]
		if !ok {
			i = len(shard) % workers
			shard[s] = i
		}
		parts[i] = append(parts[i], k)
	}
	errs := make([][]error, workers)
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chk := newChecker()
			for _, k := range part {
				if err := chk.check(k.req, k.body, k.turn); err != nil {
					errs[i] = append(errs[i], err)
				}
			}
		}()
	}
	wg.Wait()
	return slices.Concat(errs...)
}

// liveHeap is the live heap after full collections. The second one
// empties the sync.Pool victim caches the first one fills.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
