package core

import (
	"fmt"

	"wirelesshart/internal/link"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/topology"
)

// AnalyzeRoundTrip computes the control-loop completion distribution for
// one source: the uplink path model composed (paper Eq. 12 applied to the
// loop, Section V-A) with an explicit downlink path model. The downlink
// mirrors the uplink — the reversed hop sequence scheduled at the same
// in-frame slot offsets within the downlink half of the superframe — which
// is the paper's "symmetric setup". With symmetric link availabilities the
// result equals measures.SymmetricRoundTrip of the uplink cycle function.
func (a *Analyzer) AnalyzeRoundTrip(source topology.NodeID) (*measures.RoundTrip, error) {
	up, err := a.AnalyzePath(source)
	if err != nil {
		return nil, err
	}
	p, ok := a.routes[source]
	if !ok {
		return nil, fmt.Errorf("core: no route for source %d", source)
	}
	slots := a.sched.SlotsForSource(source)
	// Downlink: gateway -> ... -> device traverses the same links in
	// reverse order; the first downlink hop is the uplink's last link.
	linkIDs := p.Links()
	avails := make([]link.Availability, len(linkIDs))
	for i := range linkIDs {
		avails[i] = a.availability(linkIDs[len(linkIDs)-1-i])
	}
	// The mirrored downlink shares the uplink's schedule geometry, so its
	// chain binds onto the same cached structure.
	down, err := a.bind(slots, a.ttl, avails, "source", itoa(int(source)), "direction", "down")
	if err != nil {
		return nil, err
	}
	downRes, err := down.Solve()
	if err != nil {
		return nil, err
	}
	return measures.ComposeRoundTrip(
		measures.CycleFunction(up.Result),
		measures.CycleFunction(downRes),
		a.is,
	)
}
