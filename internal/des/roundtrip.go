package des

import (
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/stats"
	"wirelesshart/internal/topology"
)

// RoundTripConfig specifies a full control-loop simulation: each reporting
// interval, every source's sensory message travels uplink; upon gateway
// delivery the control output message is generated and travels back down
// the mirrored schedule (same slot offsets within the downlink half of the
// superframe, reversed hops). Unlike the analytical round-trip composition
// — which assumes the two directions are independent — the simulator
// evolves each link's state over the *whole* superframe timeline, so the
// same physical link serving the last uplink hop and the first downlink
// hop a few slots later is correlated exactly as a real radio would be.
type RoundTripConfig struct {
	// Net, Sched, Is, Intervals, Seed, Links as in Config. The downlink
	// frame mirrors the uplink frame (Fdown = Fup).
	Net       *topology.Network
	Sched     *schedule.Schedule
	Is        int
	Intervals int
	Seed      int64
	Links     map[topology.LinkID]LinkProcess
	// Sources restricts reporting devices (nil: all with dedicated
	// slots).
	Sources []topology.NodeID
}

// LoopStats accumulates per-source control-loop statistics.
type LoopStats struct {
	// Source is the loop's field device.
	Source topology.NodeID
	// Hops is the one-way path length.
	Hops int
	// Generated counts loop initiations (one per interval).
	Generated int
	// Completed counts loops whose output message reached the device
	// within the reporting interval.
	Completed int
	// CycleCounts[k] counts loops finishing with k+1 total cycles
	// (uplink cycle m + downlink cycles n - 1).
	CycleCounts []int
}

// Completion returns the empirical loop-completion fraction.
func (l *LoopStats) Completion() float64 {
	if l.Generated == 0 {
		return 0
	}
	return float64(l.Completed) / float64(l.Generated)
}

// CompletionCI returns the Wald 95% half-width.
func (l *LoopStats) CompletionCI() (float64, error) {
	var p stats.Proportion
	p.ObserveN(l.Completed, l.Generated)
	return p.ConfidenceInterval(stats.Z95)
}

// CycleProbs returns the empirical loop-cycle distribution relative to
// generated loops.
func (l *LoopStats) CycleProbs() []float64 {
	out := make([]float64, len(l.CycleCounts))
	if l.Generated == 0 {
		return out
	}
	for i, c := range l.CycleCounts {
		out[i] = float64(c) / float64(l.Generated)
	}
	return out
}

// RoundTripResult is a completed loop simulation.
type RoundTripResult struct {
	Loops     []*LoopStats
	Intervals int
}

// LoopBySource returns one source's loop statistics.
func (r *RoundTripResult) LoopBySource(src topology.NodeID) (*LoopStats, bool) {
	for _, l := range r.Loops {
		if l.Source == src {
			return l, true
		}
	}
	return nil, false
}

// RunRoundTrip simulates the full control loop.
func RunRoundTrip(cfg RoundTripConfig) (*RoundTripResult, error) {
	s, err := newSim(cfg.Net, cfg.Sched, cfg.Is, cfg.Intervals, cfg.Seed, cfg.Links, cfg.Sources)
	if err != nil {
		return nil, err
	}
	fup := s.fup
	super := 2 * fup // symmetric downlink half

	out := &RoundTripResult{Loops: make([]*LoopStats, len(s.sources)), Intervals: cfg.Intervals}
	for i, src := range s.sources {
		out.Loops[i] = &LoopStats{Source: src, Hops: len(s.route[i]), CycleCounts: make([]int, cfg.Is)}
	}
	// Per source: uplink hops completed (Hops once the sensory message is
	// at the gateway) and downlink hops completed.
	upHops := make([]int, len(s.sources))
	downHops := make([]int, len(s.sources))
	for interval := 0; interval < cfg.Intervals; interval++ {
		clear(upHops)
		clear(downHops)
		s.reset()
		for g := 1; g <= cfg.Is*super; g++ {
			s.evolve(g)
			inFrame := (g-1)%super + 1 // 1..2*fup
			for i, l := range out.Loops {
				n := l.Hops
				if inFrame <= fup {
					// Uplink half: the per-source dedicated slots.
					if upHops[i] < n {
						if _, advanced := s.uplinkHop(i, upHops[i], inFrame); advanced {
							upHops[i]++
						}
					}
					continue
				}
				// Downlink half: mirrored slots, reversed hop order.
				// Downlink hop d uses the uplink slot offset slots[i][d]
				// within the downlink half and traverses link n-1-d.
				d := downHops[i]
				if upHops[i] < n || d == n || s.slots[i][d] != inFrame-fup || !s.up[s.route[i][n-1-d]] {
					continue
				}
				if downHops[i]++; downHops[i] == n {
					l.Completed++
					l.CycleCounts[(g-1)/super]++
				}
			}
		}
		for _, l := range out.Loops {
			l.Generated++
		}
	}
	return out, nil
}
