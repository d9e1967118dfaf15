package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"wirelesshart/internal/spec"
)

// PeerSolvePath is the peer protocol's single endpoint: a POST of a
// peerSolveRequest answered with the owner's Result JSON. Peers always
// solve locally (EvaluatePeer), so a forward can never cascade.
const PeerSolvePath = "/v1/peer/solve"

// peerSolveRequest is the peer protocol's wire request: the scenario in
// its ordinary spec encoding plus the canonical key the sender computed,
// which the receiver uses to detect ring or canonicalization skew before
// a wrong-keyed result can be cached anywhere.
type peerSolveRequest struct {
	Key      string     `json:"key"`
	Scenario *spec.Spec `json:"scenario"`
}

// forwardSolve sends the scenario to the ring owner of key and decodes
// its result, keeping the owner's body as the result's encoding. Every
// forward is traced ("forward" traces beside the local "solve" ones in
// /debug/traces) and counted; the caller owns the degraded-local
// fallback.
func (e *Engine) forwardSolve(ctx context.Context, s *spec.Spec, key string) (res *Result, err error) {
	owner := e.ring.Owner(key)
	e.metrics.peerForwarded.Add(1)
	tr := e.traces.StartTrace("forward", "key", key, "peer", owner.ID)
	defer func() {
		if err != nil {
			e.metrics.peerForwardErrors.Add(1)
		}
		tr.End(err)
	}()

	body, err := json.Marshal(peerSolveRequest{Key: key, Scenario: s})
	if err != nil {
		return nil, fmt.Errorf("engine: peer request: %w", err)
	}
	endPost := tr.StartSpan("peer", "peer", owner.ID)
	data, err := e.peer.Post(ctx, owner, PeerSolvePath, body)
	endPost()
	if err != nil {
		return nil, err
	}
	out := &Result{}
	if err := json.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("engine: peer %s: undecodable result: %w", owner.ID, err)
	}
	if out.Key != key {
		return nil, fmt.Errorf("engine: peer %s returned key %s for %s", owner.ID, out.Key, key)
	}
	// The owner's body is this result's response encoding: keep it, so
	// this replica serves the owner's bytes and never encodes the result.
	out.encodeOnce.Do(func() { out.encoded = data })
	return out, nil
}
