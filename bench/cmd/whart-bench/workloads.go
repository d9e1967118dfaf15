package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"wirelesshart/internal/engine"
	"wirelesshart/internal/gen"
	"wirelesshart/internal/spec"
)

// Index bases keep the generated populations of one workload disjoint:
// hot sets, timed pools and warm-up pools never share a network.
const (
	hotBase   = 0
	timedBase = 1 << 20
	warmBase  = 1 << 21
)

// PCG streams of one seed: the timed and warm-up request sequences are
// drawn independently.
const (
	streamTimed = 1
	streamWarm  = 2
)

// networkShare is the share of hot-set reads that ask for the whole
// network (/v1/network); the rest ask for one path (/v1/evaluate). It is
// an assumed mix: the repository holds no measured traffic.
const networkShare = 0.7

// failWindow is the single-link window failure every failsweep-batch
// scenario injects, as `whart-fleet -failsweep 0-20` does.
var failWindow = spec.Failure{Kind: "window", FromSlot: 0, ToSlot: 20}

// scenario is one network as the benchmark posts it: the spec, its JSON
// encoding inside request bodies, the canonical key every answer must
// carry, and the field devices a read may name as its source.
type scenario struct {
	spec    *spec.Spec
	json    []byte
	key     string
	sources []string
}

// request is one prepared HTTP request. Requests that post the same body
// share one *request, so a long sequence costs little memory.
type request struct {
	path   string
	body   []byte
	scns   []*scenario // the posted scenario, or the batch in order
	source string      // /v1/evaluate
	cands  []engine.Candidate
}

// workload is one traffic mix, fully generated before anything is timed.
// Sequences wrap around when a run outlasts them; every pool is many
// times the engine's 256-entry caches, so a repeat is still a miss
// wherever the first occurrence was.
type workload struct {
	name string
	// prefill is posted once, in order, at the start of set-up.
	prefill []*request
	// warm is the warm-up traffic, drawn from a disjoint index range.
	warm []*request
	// seq is the timed traffic.
	seq []*request
	// prefix is the number of timed requests the traced run replays.
	prefix int
	// sample is the ladder's fixed input sample.
	sample []*request
	// replicas is 2 for the two-replica ring, else 1.
	replicas int
	// batch marks /v1/batch traffic.
	batch bool
}

// workloadSpec names a workload and says how its inputs are made from a
// seed at a given scale.
type workloadSpec struct {
	name  string
	build func(seed uint64, scale float64) (*workload, error)
}

// workloads lists the benchmark's traffic mixes in run order, named as in
// BENCHMARK.json, which also gives the reason for each.
var workloads = []workloadSpec{
	{"hot-read", hotRead},
	{"cold-fleet", coldFleet},
	{"failsweep-batch", failsweepBatch},
	{"cluster-mixed", clusterMixed},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled sizes an input count; -scale shrinks every workload for smoke
// runs without changing its shape.
func scaled(n int, scale float64) int {
	return max(2, int(math.Round(float64(n)*scale)))
}

func hotRead(seed uint64, scale float64) (*workload, error) {
	hot, err := hotSet(seed, scaled(128, scale))
	if err != nil {
		return nil, err
	}
	reads := newReadSet(hot)
	w := &workload{name: "hot-read", prefix: scaled(10000, scale)}
	for _, s := range hot {
		w.prefill = append(w.prefill, networkRequest(s))
	}
	rng := rand.New(rand.NewPCG(seed, streamWarm))
	for i := 0; i < scaled(1024, scale); i++ {
		w.warm = append(w.warm, reads.draw(rng))
	}
	rng = rand.New(rand.NewPCG(seed, streamTimed))
	for i := 0; i < scaled(16384, scale); i++ {
		w.seq = append(w.seq, reads.draw(rng))
	}
	w.sample = w.seq[:min(len(w.seq), scaled(256, scale))]
	return w, nil
}

func coldFleet(seed uint64, scale float64) (*workload, error) {
	pool, err := generated(seed, timedBase, scaled(3072, scale))
	if err != nil {
		return nil, err
	}
	warm, err := generated(seed, warmBase, scaled(100, scale))
	if err != nil {
		return nil, err
	}
	w := &workload{name: "cold-fleet", prefix: scaled(500, scale)}
	for _, s := range warm {
		w.warm = append(w.warm, networkRequest(s))
	}
	for _, s := range pool {
		w.seq = append(w.seq, networkRequest(s))
	}
	w.sample = w.seq[:min(len(w.seq), scaled(256, scale))]
	return w, nil
}

func failsweepBatch(seed uint64, scale float64) (*workload, error) {
	pool, err := generated(seed, timedBase, scaled(160, scale))
	if err != nil {
		return nil, err
	}
	warm, err := generated(seed, warmBase, scaled(12, scale))
	if err != nil {
		return nil, err
	}
	w := &workload{name: "failsweep-batch", batch: true, prefix: scaled(100, scale)}
	for _, s := range warm {
		r, err := failsweepRequest(s)
		if err != nil {
			return nil, err
		}
		w.warm = append(w.warm, r)
	}
	for _, s := range pool {
		r, err := failsweepRequest(s)
		if err != nil {
			return nil, err
		}
		w.seq = append(w.seq, r)
	}
	w.sample = w.seq[:min(len(w.seq), scaled(16, scale))]
	return w, nil
}

// clusterMixed draws 75 % hot-set reads, 20 % fresh networks and 5 %
// predictions, an assumed mix. The fresh pool is large enough that a
// wrapped repeat has left both replicas' caches.
func clusterMixed(seed uint64, scale float64) (*workload, error) {
	hot, err := hotSet(seed, scaled(64, scale))
	if err != nil {
		return nil, err
	}
	fresh, err := generated(seed, timedBase, scaled(1536, scale))
	if err != nil {
		return nil, err
	}
	warmFresh, err := generated(seed, warmBase, scaled(128, scale))
	if err != nil {
		return nil, err
	}
	reads := newReadSet(hot)
	w := &workload{name: "cluster-mixed", replicas: 2, prefix: scaled(2000, scale)}
	for _, s := range hot {
		w.prefill = append(w.prefill, networkRequest(s))
	}
	if w.warm, err = drawMixed(rand.New(rand.NewPCG(seed, streamWarm)), reads, warmFresh, scaled(512, scale)); err != nil {
		return nil, err
	}
	if w.seq, err = drawMixed(rand.New(rand.NewPCG(seed, streamTimed)), reads, fresh, scaled(16384, scale)); err != nil {
		return nil, err
	}
	w.sample = w.seq[:min(len(w.seq), scaled(256, scale))]
	return w, nil
}

func drawMixed(rng *rand.Rand, reads *readSet, fresh []*scenario, n int) ([]*request, error) {
	out := make([]*request, n)
	next := 0
	for i := range out {
		switch u := rng.Float64(); {
		case u < 0.75:
			out[i] = reads.draw(rng)
		case u < 0.95:
			out[i] = networkRequest(fresh[next%len(fresh)])
			next++
		default:
			r, err := predictRequest(rng, reads.hot[rng.IntN(len(reads.hot))])
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
	}
	return out, nil
}

// hotSet is the paper's typical network followed by n-1 generated ones.
func hotSet(seed uint64, n int) ([]*scenario, error) {
	typical, err := newScenario(spec.TypicalSpec())
	if err != nil {
		return nil, err
	}
	rest, err := generated(seed, hotBase, n-1)
	if err != nil {
		return nil, err
	}
	return append([]*scenario{typical}, rest...), nil
}

// generated draws networks base..base+n-1 of the seed's fleet.
func generated(seed uint64, base, n int) ([]*scenario, error) {
	out := make([]*scenario, n)
	for i := range out {
		g, err := gen.Generate(seed, base+i, params(base+i))
		if err != nil {
			return nil, err
		}
		if out[i], err = newScenario(g.Spec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// params are gen's defaults with the node count of network index cycling
// through the default range instead of drawn per network. Every
// population then has the same size mix, which halves the cross-seed
// spread of its solve work; topology and link quality stay random.
func params(index int) gen.Params {
	p := gen.DefaultParams()
	p.NodesMin += index % (p.NodesMax - p.NodesMin + 1)
	p.NodesMax = p.NodesMin
	return p
}

func newScenario(s *spec.Spec) (*scenario, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("encode scenario: %w", err)
	}
	key, err := engine.Key(s)
	if err != nil {
		return nil, fmt.Errorf("key scenario: %w", err)
	}
	var sources []string
	for _, n := range s.Nodes {
		if n.Kind != "gateway" {
			sources = append(sources, n.Name)
		}
	}
	return &scenario{spec: s, json: raw, key: key, sources: sources}, nil
}

// readSet draws hot-set reads and shares one request per distinct body.
type readSet struct {
	hot      []*scenario
	network  []*request
	evaluate map[[2]int]*request // (scenario, source) index pair
}

func newReadSet(hot []*scenario) *readSet {
	r := &readSet{hot: hot, evaluate: map[[2]int]*request{}}
	for _, s := range hot {
		r.network = append(r.network, networkRequest(s))
	}
	return r
}

func (r *readSet) draw(rng *rand.Rand) *request {
	i := rng.IntN(len(r.hot))
	if rng.Float64() < networkShare {
		return r.network[i]
	}
	s := r.hot[i]
	k := [2]int{i, rng.IntN(len(s.sources))}
	q, ok := r.evaluate[k]
	if !ok {
		q = &request{
			path:   "/v1/evaluate",
			body:   encodeBody(map[string]any{"scenario": json.RawMessage(s.json), "source": s.sources[k[1]]}),
			scns:   []*scenario{s},
			source: s.sources[k[1]],
		}
		r.evaluate[k] = q
	}
	return q
}

func networkRequest(s *scenario) *request {
	return &request{
		path: "/v1/network",
		body: encodeBody(map[string]any{"scenario": json.RawMessage(s.json)}),
		scns: []*scenario{s},
	}
}

// failsweepRequest batches one network's single-link window failures.
func failsweepRequest(base *scenario) (*request, error) {
	r := &request{path: "/v1/batch"}
	raws := make([]json.RawMessage, len(base.spec.Links))
	for i := range base.spec.Links {
		c := *base.spec
		c.Links = append([]spec.Link(nil), base.spec.Links...)
		f := failWindow
		c.Links[i].Failure = &f
		s, err := newScenario(&c)
		if err != nil {
			return nil, err
		}
		r.scns = append(r.scns, s)
		raws[i] = s.json
	}
	r.body = encodeBody(map[string]any{"scenarios": raws})
	return r, nil
}

// predictCandidates is how many attachment candidates a prediction names,
// one Eb/N0 each, as examples/server-client asks.
const predictCandidates = 4

// predictRequest asks for predictCandidates attachments via distinct
// sources, each with a fresh Eb/N0 in examples/server-client's 4-12 dB
// range, so no peer path repeats.
func predictRequest(rng *rand.Rand, s *scenario) (*request, error) {
	if len(s.sources) < predictCandidates {
		return nil, fmt.Errorf("predict: scenario %s has fewer than %d sources", s.key, predictCandidates)
	}
	cands := make([]engine.Candidate, predictCandidates)
	for i, j := range rng.Perm(len(s.sources))[:predictCandidates] {
		cands[i] = engine.Candidate{Via: s.sources[j], EbN0s: []float64{4 + 8*rng.Float64()}}
	}
	return &request{
		path:  "/v1/predict",
		body:  encodeBody(map[string]any{"scenario": json.RawMessage(s.json), "candidates": cands}),
		scns:  []*scenario{s},
		cands: cands,
	}, nil
}

// encodeBody marshals a request body built from already-encoded specs,
// strings and numbers, which cannot fail to encode.
func encodeBody(v map[string]any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode request body: %v", err))
	}
	return b
}
