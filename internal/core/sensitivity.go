package core

import (
	"fmt"
	"math"
	"sort"

	"wirelesshart/internal/link"
	"wirelesshart/internal/topology"
)

// LinkSensitivity quantifies how much one link's quality limits the
// network: the improvement of the chosen objective when that link's
// stationary availability is raised by a small delta. The paper's
// conclusion that "the longest path with the lowest link availability
// forms the bottleneck and improving the bottleneck can considerably
// improve the network performance" becomes a ranked, quantitative
// suggestion list.
type LinkSensitivity struct {
	// Link identifies the perturbed link.
	Link topology.Link
	// SharedBy counts the uplink paths that traverse the link.
	SharedBy int
	// MeanGain is the improvement in the network's mean per-path
	// reachability (the ranking key: it credits links shared by many
	// paths).
	MeanGain float64
	// WorstGain is the improvement of the bottleneck (minimum per-path)
	// reachability; zero whenever another path ties at the bottom.
	WorstGain float64
}

// SensitivityAnalysis perturbs every link in turn, raising its stationary
// availability by delta (capped at 1), and reports the links ranked by the
// resulting mean-reachability gain (worst-path gain is reported
// alongside). A link's availability override (failure injection) keeps
// masking the perturbation, matching the analyzer's normal resolution
// order. The sweep is side-effect-free: a perturbation only changes the
// paths that traverse the perturbed link, so each affected (path, link)
// pair is bound onto the cached path structure and solved on its own,
// while every unaffected (off-path or override-masked) combination reuses
// the baseline solution — which is exactly what re-solving it would
// reproduce.
func (a *Analyzer) SensitivityAnalysis(delta float64) ([]LinkSensitivity, error) {
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("core: sensitivity delta %v out of (0,1)", delta)
	}
	base, err := a.Analyze()
	if err != nil {
		return nil, err
	}
	baseWorst := worstReach(base)
	baseMean := meanReach(base)

	// Perturbed steady-state availability per link; nil for links whose
	// configured override (failure injection) masks the perturbation, which
	// therefore cannot change any path.
	links := a.net.Links()
	perturbed := make([]link.Availability, len(links))
	for i, l := range links {
		if _, masked := a.overrides[l.ID]; masked {
			continue
		}
		proc := a.LinkProcess(l.ID)
		improvedAvail := proc.SteadyUp() + delta
		if improvedAvail > 1 {
			improvedAvail = 1
		}
		// The perturbation raises the stationary availability; for a
		// two-state model the recovery probability is preserved, while a
		// richer fading process is perturbed through its memoryless
		// equivalent (the steady marginal is all the analytic path model
		// consumes).
		prc := link.DefaultRecoveryProb
		if m, ok := proc.(link.Model); ok {
			prc = m.RecoveryProb()
		}
		improved, err := link.FromAvailability(improvedAvail, prc)
		if err != nil {
			return nil, err
		}
		perturbed[i] = improved.Steady()
	}

	// reach[i][s]: source s's reachability under link i's perturbation,
	// seeded with the baseline (correct for every unaffected combination).
	reach := make([][]float64, len(links))
	for i := range reach {
		reach[i] = make([]float64, len(a.sources))
		for s := range a.sources {
			reach[i][s] = base.Paths[s].Reachability
		}
	}
	for s, src := range a.sources {
		p := a.routes[src]
		slots := a.sched.SlotsForSource(src)
		for i, l := range links {
			if perturbed[i] == nil || !p.UsesLink(l.ID) {
				continue
			}
			avails := make([]link.Availability, p.Hops())
			for h, lid := range p.Links() {
				if lid == l.ID {
					avails[h] = perturbed[i]
				} else {
					avails[h] = a.availability(lid)
				}
			}
			m, err := a.bind(slots, a.ttl, avails, "source", itoa(int(src)), "link", itoa(int(l.ID)))
			if err != nil {
				return nil, fmt.Errorf("core: sensitivity of path from %d: %w", src, err)
			}
			endSolve := a.span("solve", "source", itoa(int(src)), "link", itoa(int(l.ID)))
			res, err := m.Solve()
			endSolve()
			if err != nil {
				return nil, fmt.Errorf("core: sensitivity of path from %d: %w", src, err)
			}
			reach[i][s] = res.Reachability()
		}
	}

	out := make([]LinkSensitivity, 0, len(links))
	for i, l := range links {
		shared := 0
		for _, p := range a.routes {
			if p.UsesLink(l.ID) {
				shared++
			}
		}
		worst, sum := 1.0, 0.0
		for _, r := range reach[i] {
			if r < worst {
				worst = r
			}
			sum += r
		}
		mean := 0.0
		if len(reach[i]) > 0 {
			mean = sum / float64(len(reach[i]))
		}
		out = append(out, LinkSensitivity{
			Link:      l,
			SharedBy:  shared,
			MeanGain:  mean - baseMean,
			WorstGain: worst - baseWorst,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		// Gains within the solver's numerical noise are ties; ranking on
		// raw float equality would let 1e-17 drift reorder the list
		// between runs.
		if d := out[i].MeanGain - out[j].MeanGain; math.Abs(d) > gainTieTolerance {
			return d > 0
		}
		return out[i].Link.ID < out[j].Link.ID
	})
	return out, nil
}

// gainTieTolerance is the gain difference below which two links are
// considered equally sensitive and ranked by ID instead.
const gainTieTolerance = 1e-12

func worstReach(na *NetworkAnalysis) float64 {
	worst := 1.0
	for _, pa := range na.Paths {
		if pa.Reachability < worst {
			worst = pa.Reachability
		}
	}
	return worst
}

func meanReach(na *NetworkAnalysis) float64 {
	if len(na.Paths) == 0 {
		return 0
	}
	var sum float64
	for _, pa := range na.Paths {
		sum += pa.Reachability
	}
	return sum / float64(len(na.Paths))
}
