package des

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

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
	if cfg.Net == nil || cfg.Sched == nil {
		return nil, errors.New("des: network and schedule are required")
	}
	if cfg.Is < 1 {
		return nil, fmt.Errorf("des: reporting interval %d must be positive", cfg.Is)
	}
	if cfg.Intervals < 1 {
		return nil, fmt.Errorf("des: need at least one interval, got %d", cfg.Intervals)
	}
	routes, err := cfg.Net.UplinkRoutes()
	if err != nil {
		return nil, err
	}
	reporting := cfg.Sources
	if reporting == nil {
		for src := range routes {
			if len(cfg.Sched.SlotsForSource(src)) > 0 {
				reporting = append(reporting, src)
			}
		}
	}
	if len(reporting) == 0 {
		return nil, errors.New("des: no reporting sources")
	}
	sort.Slice(reporting, func(i, j int) bool { return reporting[i] < reporting[j] })
	if err := cfg.Sched.ValidateSources(cfg.Net, routes, reporting); err != nil {
		return nil, fmt.Errorf("des: schedule invalid: %w", err)
	}
	for _, l := range cfg.Net.Links() {
		if cfg.Links[l.ID] == nil {
			return nil, fmt.Errorf("des: link %d has no process", l.ID)
		}
	}
	fup := cfg.Sched.Fup()
	super := 2 * fup // symmetric downlink half

	rng := rand.New(rand.NewSource(cfg.Seed))
	loopStats := map[topology.NodeID]*LoopStats{}
	slotsOf := map[topology.NodeID][]int{}
	linkSeq := map[topology.NodeID][]topology.LinkID{}
	for _, src := range reporting {
		loopStats[src] = &LoopStats{
			Source:      src,
			Hops:        routes[src].Hops(),
			CycleCounts: make([]int, cfg.Is),
		}
		slotsOf[src] = cfg.Sched.SlotsForSource(src)
		linkSeq[src] = routes[src].Links()
	}
	linkIDs := make([]topology.LinkID, 0, cfg.Net.NumLinks())
	for _, l := range cfg.Net.Links() {
		linkIDs = append(linkIDs, l.ID)
	}

	type loopState struct {
		upHops    int  // uplink hops completed
		atGateway bool // uplink delivered, downlink in flight
		downHops  int  // downlink hops completed
		done      bool
	}

	for interval := 0; interval < cfg.Intervals; interval++ {
		states := map[topology.NodeID]*loopState{}
		for _, src := range reporting {
			states[src] = &loopState{}
			loopStats[src].Generated++
		}
		for _, id := range linkIDs {
			cfg.Links[id].Reset(rng)
		}
		linkUp := map[topology.LinkID]bool{}

		horizon := cfg.Is * super
		for g := 1; g <= horizon; g++ {
			for _, id := range linkIDs {
				linkUp[id] = cfg.Links[id].Up(g, rng)
			}
			inFrame := (g-1)%super + 1 // 1..2*fup
			cycle := (g-1)/super + 1
			if inFrame <= fup {
				// Uplink half: the per-source dedicated slots.
				for _, src := range reporting {
					st := states[src]
					if st.atGateway || st.done {
						continue
					}
					h := indexOf(slotsOf[src], inFrame)
					if h < 0 || st.upHops != h {
						continue
					}
					if !linkUp[linkSeq[src][h]] {
						continue
					}
					st.upHops++
					if st.upHops == loopStats[src].Hops {
						st.atGateway = true
					}
				}
				continue
			}
			// Downlink half: mirrored slots, reversed hop order. Downlink
			// hop d uses the uplink slot offset slotsOf[src][d] within
			// the downlink half and traverses link n-1-d.
			downSlot := inFrame - fup
			for _, src := range reporting {
				st := states[src]
				if !st.atGateway || st.done {
					continue
				}
				d := indexOf(slotsOf[src], downSlot)
				if d < 0 || st.downHops != d {
					continue
				}
				n := loopStats[src].Hops
				if !linkUp[linkSeq[src][n-1-d]] {
					continue
				}
				st.downHops++
				if st.downHops == n {
					st.done = true
					loopStats[src].Completed++
					if cycle >= 1 && cycle <= cfg.Is {
						loopStats[src].CycleCounts[cycle-1]++
					}
				}
			}
		}
	}

	out := &RoundTripResult{Intervals: cfg.Intervals}
	for _, src := range reporting {
		out.Loops = append(out.Loops, loopStats[src])
	}
	return out, nil
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
