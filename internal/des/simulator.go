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

// Config specifies a simulation run.
type Config struct {
	// Net is the network topology (routes are derived from it).
	Net *topology.Network
	// Sched is the uplink communication schedule (single- or
	// multi-channel).
	Sched schedule.ExecutablePlan
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

// message tracks one in-flight sensory message.
type message struct {
	src       topology.NodeID
	hopsDone  int
	delivered bool
	expired   bool
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
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
		// Canonical source order: the simulator consumes RNG draws per
		// source, so map order would change the sample path per run.
		sort.Slice(reporting, func(i, j int) bool { return reporting[i] < reporting[j] })
	}
	if len(reporting) == 0 {
		return nil, errors.New("des: no reporting sources")
	}
	if err := cfg.Sched.ValidateSources(cfg.Net, routes, reporting); err != nil {
		return nil, fmt.Errorf("des: schedule invalid: %w", err)
	}
	fup := cfg.Sched.Fup()
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
	for _, l := range cfg.Net.Links() {
		if cfg.Links[l.ID] == nil {
			return nil, fmt.Errorf("des: link %d has no process", l.ID)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))

	// Per-source bookkeeping.
	sources := make([]topology.NodeID, 0, len(reporting))
	sources = append(sources, reporting...)
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	pathStats := map[topology.NodeID]*PathResult{}
	lastSlot := map[topology.NodeID]int{} // a0 per source
	for _, src := range sources {
		slots := cfg.Sched.SlotsForSource(src)
		if len(slots) == 0 {
			return nil, fmt.Errorf("des: no slots dedicated to source %d", src)
		}
		lastSlot[src] = slots[len(slots)-1]
		pathStats[src] = &PathResult{
			Source:      src,
			Hops:        routes[src].Hops(),
			CycleCounts: make([]int, cfg.Is),
		}
	}
	// hopIndex[src][slot] = which hop (0-based) of src's path transmits in
	// that frame slot.
	hopIndex := map[topology.NodeID]map[int]int{}
	for _, src := range sources {
		m := map[int]int{}
		for h, slot := range cfg.Sched.SlotsForSource(src) {
			m[slot] = h
		}
		hopIndex[src] = m
	}

	linkIDs := make([]topology.LinkID, 0, cfg.Net.NumLinks())
	for _, l := range cfg.Net.Links() {
		linkIDs = append(linkIDs, l.ID)
	}

	for interval := 0; interval < cfg.Intervals; interval++ {
		// Fresh messages and link states per reporting interval.
		msgs := map[topology.NodeID]*message{}
		for _, src := range sources {
			msgs[src] = &message{src: src}
			pathStats[src].Generated++
		}
		for _, id := range linkIDs {
			cfg.Links[id].Reset(rng)
		}
		linkUp := map[topology.LinkID]bool{}

		// Drive the interval through the event queue: one slot event per
		// uplink slot, in time order.
		var q EventQueue
		for t := 1; t <= horizon; t++ {
			t := t
			err := q.Push(&Event{Time: t, Action: func() {
				// 1) Evolve every link to this slot.
				for _, id := range linkIDs {
					linkUp[id] = cfg.Links[id].Up(t, rng)
				}
				// 2) Execute the schedule entries of this frame slot
				// (several with multi-channel schedules).
				frameSlot := (t-1)%fup + 1
				entries, err := cfg.Sched.EntriesAt(frameSlot)
				if err != nil {
					return
				}
				for _, entry := range entries {
					msg := msgs[entry.Source]
					if msg == nil || msg.delivered || msg.expired {
						continue
					}
					h, ok := hopIndex[entry.Source][frameSlot]
					if !ok || msg.hopsDone != h {
						continue
					}
					ps := pathStats[entry.Source]
					ps.Attempts++
					lnk, ok := cfg.Net.LinkBetween(entry.From, entry.To)
					if !ok {
						continue
					}
					if !linkUp[lnk.ID] {
						continue // retransmission next cycle
					}
					msg.hopsDone++
					if msg.hopsDone == routes[entry.Source].Hops() {
						msg.delivered = true
						ps.Delivered++
						cycle := (t-lastSlot[entry.Source])/fup + 1
						if cycle >= 1 && cycle <= cfg.Is {
							ps.CycleCounts[cycle-1]++
						}
						delay := float64(t+(cycle-1)*fdown) * schedule.SlotDurationMS
						ps.DelaySummary.Observe(delay)
					}
				}
			}})
			if err != nil {
				return nil, err
			}
		}
		for q.Len() > 0 {
			ev := q.Pop()
			if ev.Time > ttl {
				// TTL expiry: any undelivered message dies before this
				// slot's transmissions could serve it.
				break
			}
			ev.Action()
		}
		for _, src := range sources {
			if !msgs[src].delivered {
				msgs[src].expired = true
				pathStats[src].Lost++
			}
		}
	}

	out := &Result{Intervals: cfg.Intervals, Is: cfg.Is, Fup: fup}
	for _, src := range sources {
		out.Paths = append(out.Paths, pathStats[src])
	}
	return out, nil
}
