// Package des is a hand-rolled simulator of the WirelessHART uplink MAC:
// slotted TDMA with superframes, per-slot link state evolution (Gilbert
// model, k-state fading or channel hopping with per-channel BER), message
// lifecycle with TTL, and per-path delivery statistics. It steps one slot
// at a time: every slot it evolves each link, in network link order, and
// then lets each source's scheduled hop transmit. It cross-validates the
// analytical DTMC model the way the paper's authors would validate against
// a testbed.
package des

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"wirelesshart/internal/schedule"
	"wirelesshart/internal/stats"
	"wirelesshart/internal/topology"
)

// Config specifies a simulation run.
type Config struct {
	// Net is the network topology (routes are derived from it).
	Net *topology.Network
	// Sched is the uplink communication schedule.
	Sched *schedule.Schedule
	// Is is the reporting interval in super-frames.
	Is int
	// TTL is the message TTL in uplink slots (0 selects Is*Fup).
	TTL int
	// Fdown is the downlink frame size used for delay conversion; a
	// negative value selects the symmetric Fdown = Fup.
	Fdown int
	// Intervals is the number of reporting intervals to simulate.
	Intervals int
	// Seed seeds the simulation's PRNG; runs are reproducible.
	Seed int64
	// Links maps every network link to its state process;
	// NewProcessSteady gives a link process's stationary counterpart.
	Links map[topology.LinkID]LinkProcess
	// Sources restricts which field devices generate messages. Nil
	// selects every routed source that has dedicated schedule slots
	// (pure relays are then excluded automatically).
	Sources []topology.NodeID
}

// PathResult accumulates per-path delivery statistics.
type PathResult struct {
	// Source is the path's source node.
	Source topology.NodeID
	// Hops is the path length.
	Hops int
	// Generated counts messages born at the source (one per interval).
	Generated int
	// Delivered counts messages that reached the gateway in time.
	Delivered int
	// Lost counts TTL expiries.
	Lost int
	// CycleCounts[i] counts deliveries in cycle i+1.
	CycleCounts []int
	// Attempts counts transmission attempts (successful or not).
	Attempts int
	// DelaySummary aggregates delivered messages' delays in ms.
	DelaySummary stats.Summary
}

// Reachability returns the empirical delivery fraction.
func (p *PathResult) Reachability() float64 {
	if p.Generated == 0 {
		return 0
	}
	return float64(p.Delivered) / float64(p.Generated)
}

// ReachabilityCI returns the Wald 95% half-width of the reachability.
func (p *PathResult) ReachabilityCI() (float64, error) {
	var prop stats.Proportion
	prop.ObserveN(p.Delivered, p.Generated)
	return prop.ConfidenceInterval(stats.Z95)
}

// CycleProbs returns the empirical per-cycle arrival probabilities
// (relative to generated messages), comparable to the analytic
// Result.CycleProbs.
func (p *PathResult) CycleProbs() []float64 {
	out := make([]float64, len(p.CycleCounts))
	if p.Generated == 0 {
		return out
	}
	for i, c := range p.CycleCounts {
		out[i] = float64(c) / float64(p.Generated)
	}
	return out
}

// Result is a completed simulation.
type Result struct {
	// Paths holds per-source statistics ordered by source id.
	Paths []*PathResult
	// Intervals echoes the number of simulated reporting intervals.
	Intervals int
	// Is and Fup echo the configuration.
	Is, Fup int
}

// PathBySource returns the statistics for one source.
func (r *Result) PathBySource(src topology.NodeID) (*PathResult, bool) {
	for _, p := range r.Paths {
		if p.Source == src {
			return p, true
		}
	}
	return nil, false
}

// NetworkUtilization returns the empirical utilization: attempted
// transmissions per available slot, summed over paths (Eq. 11's simulator
// counterpart).
func (r *Result) NetworkUtilization() float64 {
	var attempts int
	for _, p := range r.Paths {
		attempts += p.Attempts
	}
	return float64(attempts) / float64(r.Intervals*r.Is*r.Fup)
}

// sim is the setup Run and RunRoundTrip share: the reporting sources in
// id order, each source's dedicated frame slots and traversed links in hop
// order, and one link process per network link in Net.Links() order.
type sim struct {
	sources []topology.NodeID
	slots   [][]int // slots[i][h]: frame slot of hop h of sources[i]
	route   [][]topology.LinkID
	procs   []LinkProcess
	up      []bool // up[id]: link id's state in the current slot
	fup     int
	rng     *rand.Rand
}

// newSim validates a run and lays out its sources, routes and link
// processes. A nil sources selects every routed source with dedicated
// slots; the caller's slice is never modified.
func newSim(net *topology.Network, sched *schedule.Schedule, is, intervals int, seed int64,
	links map[topology.LinkID]LinkProcess, sources []topology.NodeID) (*sim, error) {
	if net == nil || sched == nil {
		return nil, errors.New("des: network and schedule are required")
	}
	if is < 1 {
		return nil, fmt.Errorf("des: reporting interval %d must be positive", is)
	}
	if intervals < 1 {
		return nil, fmt.Errorf("des: need at least one interval, got %d", intervals)
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		return nil, err
	}
	reporting := slices.Clone(sources)
	if sources == nil {
		for src := range routes {
			if len(sched.SlotsForSource(src)) > 0 {
				reporting = append(reporting, src)
			}
		}
	}
	// Canonical source order: results are listed per source, and map
	// order would change them per run.
	slices.Sort(reporting)
	if len(reporting) == 0 {
		return nil, errors.New("des: no reporting sources")
	}
	if err := sched.ValidateSources(net, routes, reporting); err != nil {
		return nil, fmt.Errorf("des: schedule invalid: %w", err)
	}
	s := &sim{
		sources: reporting,
		slots:   make([][]int, len(reporting)),
		route:   make([][]topology.LinkID, len(reporting)),
		procs:   make([]LinkProcess, net.NumLinks()),
		up:      make([]bool, net.NumLinks()),
		fup:     sched.Fup(),
		rng:     rand.New(rand.NewSource(seed)),
	}
	for _, l := range net.Links() {
		if s.procs[l.ID] = links[l.ID]; s.procs[l.ID] == nil {
			return nil, fmt.Errorf("des: link %d has no process", l.ID)
		}
	}
	for i, src := range reporting {
		s.slots[i] = sched.SlotsForSource(src)
		s.route[i] = routes[src].Links()
	}
	return s, nil
}

// reset starts a reporting interval: every link redraws its initial state.
func (s *sim) reset() {
	for _, p := range s.procs {
		p.Reset(s.rng)
	}
}

// evolve advances every link to slot t of the interval.
func (s *sim) evolve(t int) {
	for id, p := range s.procs {
		s.up[id] = p.Up(t, s.rng)
	}
}

// uplinkHop is the uplink-hop rule: hop h of source i transmits in frame
// slot slots[i][h], and it advances if its link route[i][h] is up then.
func (s *sim) uplinkHop(i, h, frameSlot int) (sent, advanced bool) {
	if s.slots[i][h] != frameSlot {
		return false, false
	}
	return true, s.up[s.route[i][h]]
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	s, err := newSim(cfg.Net, cfg.Sched, cfg.Is, cfg.Intervals, cfg.Seed, cfg.Links, cfg.Sources)
	if err != nil {
		return nil, err
	}
	fup := s.fup
	horizon := cfg.Is * fup
	ttl := cfg.TTL
	if ttl == 0 {
		ttl = horizon
	}
	if ttl < 0 || ttl > horizon {
		return nil, fmt.Errorf("des: TTL %d out of [1,%d]", ttl, horizon)
	}
	fdown := cfg.Fdown
	if fdown < 0 {
		fdown = fup
	}

	out := &Result{Paths: make([]*PathResult, len(s.sources)), Intervals: cfg.Intervals, Is: cfg.Is, Fup: fup}
	for i, src := range s.sources {
		out.Paths[i] = &PathResult{Source: src, Hops: len(s.route[i]), CycleCounts: make([]int, cfg.Is)}
	}
	hopsDone := make([]int, len(s.sources))
	for interval := 0; interval < cfg.Intervals; interval++ {
		// A fresh message per source and fresh link states per interval.
		clear(hopsDone)
		s.reset()
		// Slots past the TTL are never reached: an undelivered message
		// dies before their transmissions could serve it.
		for t := 1; t <= ttl; t++ {
			s.evolve(t)
			frameSlot := (t-1)%fup + 1
			for i, p := range out.Paths {
				if hopsDone[i] == p.Hops {
					continue
				}
				sent, advanced := s.uplinkHop(i, hopsDone[i], frameSlot)
				if !sent {
					continue
				}
				p.Attempts++
				if !advanced {
					continue // retransmission next cycle
				}
				if hopsDone[i]++; hopsDone[i] == p.Hops {
					p.Delivered++
					cycle := (t-1)/fup + 1
					p.CycleCounts[cycle-1]++
					p.DelaySummary.Observe(float64(t+(cycle-1)*fdown) * schedule.SlotDurationMS)
				}
			}
		}
		for i, p := range out.Paths {
			p.Generated++
			if hopsDone[i] < p.Hops {
				p.Lost++
			}
		}
	}
	return out, nil
}
