package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"wirelesshart/internal/core"
	"wirelesshart/internal/engine"
	"wirelesshart/internal/link"
	"wirelesshart/internal/spec"
)

// Paper anchors for spec.TypicalSpec(): E[tau] of the n10 path and E[Gamma].
const (
	anchorTau10MS = 421.4
	anchorGammaMS = 235.4
	anchorTolMS   = 1.0
)

// relTol is how closely a served value must match an independent solve.
const relTol = 1e-9

// batchStride thins the check of a batch answer to every batchStride-th
// scenario. A failure-sweep batch holds ~37 scenarios, so re-solving all
// of them would make its check several times longer than the other
// workloads'; the first scenario checked rotates from one kept batch to
// the next, so every position is checked.
const batchStride = 4

// checkKeys verifies that a response carries the canonical key of every
// scenario it answers, in order. The engine writes indented JSON, so a
// key appears as `"key": "<hex>"`.
func checkKeys(body []byte, r *request) error {
	rest := body
	for _, s := range r.scns {
		needle := []byte(`"key": "` + s.key + `"`)
		i := bytes.Index(rest, needle)
		if i < 0 {
			return fmt.Errorf("%s: response lacks key %s", r.path, s.key)
		}
		rest = rest[i+len(needle):]
	}
	return nil
}

// answer decodes every response shape the benchmark checks.
type answer struct {
	Key                string       `json:"key"`
	OverallMeanDelayMS float64      `json:"overallMeanDelayMS"`
	Paths              []pathAnswer `json:"paths"`
	Path               *pathAnswer  `json:"path"`
	Results            []answer     `json:"results"`
	Predictions        []predAnswer `json:"predictions"`
}

type pathAnswer struct {
	Source          string  `json:"source"`
	Reachability    float64 `json:"reachability"`
	ExpectedDelayMS float64 `json:"expectedDelayMS"`
}

type predAnswer struct {
	Via          string  `json:"via"`
	Reachability float64 `json:"reachability"`
}

// reference is an independent solve of one scenario: spec.Build and
// Analyze with no engine cache of any tier.
type reference struct {
	built   *spec.Built
	overall float64
	paths   map[string]*core.PathAnalysis // by source name
}

// checker re-solves scenarios and compares served answers to them.
type checker struct {
	refs map[*scenario]*reference
}

func newChecker() *checker { return &checker{refs: map[*scenario]*reference{}} }

func (c *checker) ref(s *scenario) (*reference, error) {
	if r, ok := c.refs[s]; ok {
		return r, nil
	}
	built, err := s.spec.Build()
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	na, err := built.Analyzer.Analyze()
	if err != nil {
		return nil, fmt.Errorf("reference analyze: %w", err)
	}
	r := &reference{built: built, overall: na.OverallMeanDelayMS, paths: map[string]*core.PathAnalysis{}}
	for _, pa := range na.Paths {
		n, err := built.Net.Node(pa.Source)
		if err != nil {
			return nil, err
		}
		r.paths[n.Name] = pa
	}
	c.refs[s] = r
	return r, nil
}

// check compares one served response with the reference solve of its
// scenarios: overall mean delay and every path's reachability for network
// answers, the path's reachability and mean delay for path answers, and
// the composed reachability of every prediction. turn counts the kept
// responses and picks which batch scenarios are checked.
func (c *checker) check(r *request, body []byte, turn int) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("%s: decode response: %w", r.path, err)
	}
	switch r.path {
	case "/v1/network":
		return c.network(r.scns[0], a)
	case "/v1/batch":
		if len(a.Results) != len(r.scns) {
			return fmt.Errorf("batch: %d results for %d scenarios", len(a.Results), len(r.scns))
		}
		for i := turn % batchStride; i < len(r.scns); i += batchStride {
			if err := c.network(r.scns[i], a.Results[i]); err != nil {
				return fmt.Errorf("batch scenario %d: %w", i, err)
			}
		}
		return nil
	case "/v1/evaluate":
		return c.evaluate(r, a)
	case "/v1/predict":
		return c.predict(r, a)
	}
	return fmt.Errorf("no check for %s", r.path)
}

func (c *checker) network(s *scenario, a answer) error {
	if a.Key != s.key {
		return fmt.Errorf("key %s, want %s", a.Key, s.key)
	}
	ref, err := c.ref(s)
	if err != nil {
		return err
	}
	if !near(a.OverallMeanDelayMS, ref.overall) {
		return fmt.Errorf("overallMeanDelayMS %v, reference %v", a.OverallMeanDelayMS, ref.overall)
	}
	if len(a.Paths) != len(ref.paths) {
		return fmt.Errorf("%d paths, reference %d", len(a.Paths), len(ref.paths))
	}
	for _, p := range a.Paths {
		pa, ok := ref.paths[p.Source]
		if !ok {
			return fmt.Errorf("path %s absent from reference", p.Source)
		}
		if !near(p.Reachability, pa.Reachability) {
			return fmt.Errorf("path %s reachability %v, reference %v", p.Source, p.Reachability, pa.Reachability)
		}
	}
	return nil
}

func (c *checker) evaluate(r *request, a answer) error {
	s := r.scns[0]
	if a.Key != s.key {
		return fmt.Errorf("evaluate: key %s, want %s", a.Key, s.key)
	}
	if a.Path == nil || a.Path.Source != r.source {
		return fmt.Errorf("evaluate: no path for source %s", r.source)
	}
	ref, err := c.ref(s)
	if err != nil {
		return err
	}
	pa := ref.paths[r.source]
	if pa == nil {
		return fmt.Errorf("evaluate: source %s absent from reference", r.source)
	}
	if !near(a.Path.Reachability, pa.Reachability) || !near(a.Path.ExpectedDelayMS, pa.ExpectedDelayMS) {
		return fmt.Errorf("evaluate %s: R=%v E=%v, reference R=%v E=%v", r.source,
			a.Path.Reachability, a.Path.ExpectedDelayMS, pa.Reachability, pa.ExpectedDelayMS)
	}
	return nil
}

func (c *checker) predict(r *request, a answer) error {
	s := r.scns[0]
	if a.Key != s.key {
		return fmt.Errorf("predict: key %s, want %s", a.Key, s.key)
	}
	if len(a.Predictions) != len(r.cands) {
		return fmt.Errorf("predict: %d predictions for %d candidates", len(a.Predictions), len(r.cands))
	}
	ref, err := c.ref(s)
	if err != nil {
		return err
	}
	for _, p := range a.Predictions {
		want, err := ref.predict(p.Via, r.cands, s.spec.Bits())
		if err != nil {
			return err
		}
		if !near(p.Reachability, want) {
			return fmt.Errorf("predict via %s: reachability %v, reference %v", p.Via, p.Reachability, want)
		}
	}
	return nil
}

// predict composes the candidate attached via `via` with core's own
// peer-path composition.
func (r *reference) predict(via string, cands []engine.Candidate, bits int) (float64, error) {
	for _, c := range cands {
		if c.Via != via {
			continue
		}
		node, ok := r.built.Net.NodeByName(via)
		if !ok {
			return 0, fmt.Errorf("predict: unknown via %s", via)
		}
		models := make([]link.Model, len(c.EbN0s))
		for i, x := range c.EbN0s {
			m, err := link.FromEbN0(x, bits, link.DefaultRecoveryProb)
			if err != nil {
				return 0, err
			}
			models[i] = m
		}
		_, reach, err := r.built.Analyzer.PredictPeerComposition(node.ID, models)
		return reach, err
	}
	return 0, fmt.Errorf("predict: answer names via %s, which no candidate uses", via)
}

// checkAnchors verifies a /v1/network answer for spec.TypicalSpec()
// against the paper's figures.
func checkAnchors(body []byte) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("anchors: decode: %w", err)
	}
	if math.Abs(a.OverallMeanDelayMS-anchorGammaMS) > anchorTolMS {
		return fmt.Errorf("anchors: E[Gamma] = %v ms, paper %v", a.OverallMeanDelayMS, anchorGammaMS)
	}
	for _, p := range a.Paths {
		if p.Source == "n10" {
			if math.Abs(p.ExpectedDelayMS-anchorTau10MS) > anchorTolMS {
				return fmt.Errorf("anchors: E[tau_10] = %v ms, paper %v", p.ExpectedDelayMS, anchorTau10MS)
			}
			return nil
		}
	}
	return fmt.Errorf("anchors: no n10 path")
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(math.Abs(got), math.Abs(want))
}
