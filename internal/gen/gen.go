// Package gen is a seeded, deterministic WirelessHART topology generator:
// where the paper evaluates one hand-built 10-node typical network
// (Fig. 12), gen emits whole populations of random but valid networks —
// parameterized node count, hop-depth mix, fan-in and link-quality
// distributions — each with BFS uplink routes passing the official
// 4-hop guideline (topology.CheckHopLimit) and a synthesized
// ValidateSources-clean communication schedule generalizing the paper's
// eta_b / multi-channel construction.
//
// All randomness flows from a single uint64 fleet seed through a
// math/rand/v2 PCG; network i of a fleet is drawn from stream i of that
// seed, so any subset of a population can be regenerated independently
// and the same seed always yields byte-identical topologies.
//
// The generator grows a layered tree: the gateway sits at depth 0, each
// field device draws a depth from the hop-depth mix and attaches to a
// parent one level up (respecting the fan-in cap), and optional extra
// links between nodes at most one level apart add the mesh redundancy of
// a real deployment. Extra links never deepen a BFS route — an endpoint's
// depth can only stay or shrink — so the hop-limit invariant holds by
// construction for every parameterization.
package gen

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"wirelesshart/internal/link"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/spec"
	"wirelesshart/internal/topology"
)

// Params parameterizes one population of generated networks. The zero
// value is not usable; start from DefaultParams.
type Params struct {
	// NodesMin and NodesMax bound the number of field devices per
	// network (inclusive); each network draws its size uniformly.
	NodesMin int `json:"nodesMin"`
	NodesMax int `json:"nodesMax"`
	// MaxDepth bounds the tree depth in hops, at most topology.MaxHops
	// (the official guideline the generated routes must respect).
	MaxDepth int `json:"maxDepth"`
	// DepthWeights is the hop-depth mix: DepthWeights[d-1] is the
	// relative weight of depth d in [1, MaxDepth]. Empty selects a
	// uniform mix. Draws are repaired to the nearest depth with an open
	// parent slot, so the realized mix tracks the weights only as far as
	// the fan-in cap allows.
	DepthWeights []float64 `json:"depthWeights,omitempty"`
	// MaxFanIn caps the number of tree children per node. The full
	// fan-in tree must have room for NodesMax devices.
	MaxFanIn int `json:"maxFanIn"`
	// ExtraLinkProb is the per-device probability of one extra mesh link
	// to a node at most one depth level away.
	ExtraLinkProb float64 `json:"extraLinkProb"`
	// AvailLo and AvailHi bound the per-link steady-state availability
	// pi(up), drawn uniformly. Availabilities below 0.5 are rejected:
	// with the default recovery probability they imply a per-slot failure
	// probability above 1.
	AvailLo float64 `json:"availLo"`
	AvailHi float64 `json:"availHi"`
	// DegradedProb, when positive, draws that fraction of links from the
	// degraded availability range instead — a bimodal link-quality mix.
	DegradedProb float64 `json:"degradedProb,omitempty"`
	DegradedLo   float64 `json:"degradedLo,omitempty"`
	DegradedHi   float64 `json:"degradedHi,omitempty"`
	// FadingProb, when positive, draws that fraction of links as k-state
	// Markov fading links — a spec `fading` block instead of a scalar
	// availability. Zero (the default) keeps every existing seed
	// byte-identical.
	FadingProb float64 `json:"fadingProb,omitempty"`
	// FadingStates is the number of channel states k for drawn fading
	// links (0 selects 3).
	FadingStates int `json:"fadingStates,omitempty"`
	// FadingStay is the per-state self-transition probability of drawn
	// fading chains — the burstiness knob (0 selects 0.9). Must stay
	// below 1: a stay probability of 1 makes the chain reducible.
	FadingStay float64 `json:"fadingStay,omitempty"`
	// Channels is the number of parallel frequency channels for the
	// synthesized schedule (1..16; >1 yields a multi-channel schedule).
	Channels int `json:"channels"`
	// ExtraIdle idle slots pad the synthesized frame.
	ExtraIdle int `json:"extraIdle"`
	// ReportingInterval is Is in super-frames.
	ReportingInterval int `json:"reportingInterval"`
}

// DefaultParams returns the fleet defaults: 20-40 devices, the full
// 4-hop depth budget with a mid-heavy mix, fan-in 4, a quarter of the
// devices with one redundant link, availabilities in [0.80, 0.995], and
// a 4-channel longest-first schedule at the paper's Is = 4.
func DefaultParams() Params {
	return Params{
		NodesMin:          20,
		NodesMax:          40,
		MaxDepth:          topology.MaxHops,
		DepthWeights:      []float64{1, 3, 3, 2},
		MaxFanIn:          4,
		ExtraLinkProb:     0.25,
		AvailLo:           0.80,
		AvailHi:           0.995,
		Channels:          4,
		ExtraIdle:         1,
		ReportingInterval: 4,
	}
}

// minAvail is the lowest availability the generator accepts; below it the
// implied per-slot failure probability exceeds 1 for the default recovery
// probability (p_fl = p_rc*(1-A)/A).
const minAvail = 0.5

// Fading-draw defaults and bounds: three channel states (deep fade,
// shadowed, clear) with a sticky chain, capped well below population
// sizes where the k x k transition matrix would dominate the spec.
const (
	defaultFadingStates = 3
	defaultFadingStay   = 0.9
	maxFadingStates     = 16
)

// Validate checks the parameters for internal consistency.
func (p Params) Validate() error {
	if p.NodesMin < 1 {
		return fmt.Errorf("gen: NodesMin %d must be at least 1", p.NodesMin)
	}
	if p.NodesMax < p.NodesMin {
		return fmt.Errorf("gen: NodesMax %d below NodesMin %d", p.NodesMax, p.NodesMin)
	}
	if p.MaxDepth < 1 || p.MaxDepth > topology.MaxHops {
		return fmt.Errorf("gen: MaxDepth %d out of [1,%d]", p.MaxDepth, topology.MaxHops)
	}
	if len(p.DepthWeights) != 0 && len(p.DepthWeights) != p.MaxDepth {
		return fmt.Errorf("gen: %d depth weights for MaxDepth %d", len(p.DepthWeights), p.MaxDepth)
	}
	sum := 0.0
	for d, w := range p.DepthWeights {
		if w < 0 {
			return fmt.Errorf("gen: negative weight for depth %d", d+1)
		}
		sum += w
	}
	if len(p.DepthWeights) != 0 && sum <= 0 {
		return errors.New("gen: depth weights sum to zero")
	}
	if p.MaxFanIn < 1 {
		return fmt.Errorf("gen: MaxFanIn %d must be at least 1", p.MaxFanIn)
	}
	if cap := treeCapacity(p.MaxFanIn, p.MaxDepth); cap < p.NodesMax {
		return fmt.Errorf("gen: a depth-%d fan-in-%d tree holds %d devices, NodesMax is %d",
			p.MaxDepth, p.MaxFanIn, cap, p.NodesMax)
	}
	if p.ExtraLinkProb < 0 || p.ExtraLinkProb > 1 {
		return fmt.Errorf("gen: ExtraLinkProb %v out of [0,1]", p.ExtraLinkProb)
	}
	if err := checkAvailRange("availability", p.AvailLo, p.AvailHi); err != nil {
		return err
	}
	if p.DegradedProb < 0 || p.DegradedProb > 1 {
		return fmt.Errorf("gen: DegradedProb %v out of [0,1]", p.DegradedProb)
	}
	if p.DegradedProb > 0 {
		if err := checkAvailRange("degraded availability", p.DegradedLo, p.DegradedHi); err != nil {
			return err
		}
	}
	if p.FadingProb < 0 || p.FadingProb > 1 {
		return fmt.Errorf("gen: FadingProb %v out of [0,1]", p.FadingProb)
	}
	if p.FadingStates != 0 && (p.FadingStates < 2 || p.FadingStates > maxFadingStates) {
		return fmt.Errorf("gen: FadingStates %d out of [2,%d]", p.FadingStates, maxFadingStates)
	}
	if p.FadingStay < 0 || p.FadingStay >= 1 {
		return fmt.Errorf("gen: FadingStay %v out of [0,1)", p.FadingStay)
	}
	if p.Channels < 1 || p.Channels > 16 {
		return fmt.Errorf("gen: Channels %d out of [1,16]", p.Channels)
	}
	if p.ExtraIdle < 0 {
		return fmt.Errorf("gen: negative ExtraIdle %d", p.ExtraIdle)
	}
	if p.ReportingInterval < 1 {
		return fmt.Errorf("gen: ReportingInterval %d must be positive", p.ReportingInterval)
	}
	return nil
}

func checkAvailRange(what string, lo, hi float64) error {
	if lo < minAvail || hi > 1 || lo > hi {
		return fmt.Errorf("gen: %s range [%v,%v] outside [%v,1]", what, lo, hi, minAvail)
	}
	return nil
}

// treeCapacity returns the device capacity of a full fan-in tree of the
// given depth, saturating far above any realistic population.
func treeCapacity(fanIn, depth int) int {
	const saturate = 1 << 20
	total, width := 0, 1
	for d := 0; d < depth; d++ {
		width *= fanIn
		total += width
		if total > saturate {
			return saturate
		}
	}
	return total
}

// Generated is one network of a fleet: the JSON spec the evaluation
// engine consumes plus the realized topology, routes and schedule — all
// derived deterministically from (fleet seed, index, params).
type Generated struct {
	// Index is the network's position in its fleet.
	Index int
	// FleetSeed is the fleet-level seed the network was drawn from.
	FleetSeed uint64
	// Spec is the engine-ready network specification.
	Spec *spec.Spec
	// Net is the realized topology (identical to what Spec builds).
	Net *topology.Network
	// Plan is the synthesized schedule, ValidateSources-clean against
	// Routes.
	Plan *schedule.Schedule
	// Routes are the BFS uplink routes, all within the hop limit.
	Routes map[topology.NodeID]topology.Path
	// Depths records each node's tree depth by node id.
	Depths []int
}

// Generate draws network `index` of the fleet identified by seed. The
// same (seed, index, params) triple always yields the same network;
// distinct indices use independent PCG streams of the seed.
func Generate(seed uint64, index int, p Params) (*Generated, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if index < 0 {
		return nil, fmt.Errorf("gen: negative network index %d", index)
	}
	rng := rand.New(rand.NewPCG(seed, uint64(index)))
	n := p.NodesMin + rng.IntN(p.NodesMax-p.NodesMin+1)

	// Layered tree: node 0 is the gateway at depth 0, devices 1..n draw a
	// depth and attach to a parent with an open child slot one level up.
	depths := make([]int, n+1)
	children := make([]int, n+1)
	parents := make([]int, n+1)
	levels := make([][]int, p.MaxDepth+1)
	levels[0] = []int{0}
	parents[0] = -1

	s := &spec.Spec{
		Nodes: []spec.Node{{Name: "G", Kind: "gateway"}},
		Schedule: spec.Schedule{
			Policy:    "longest-first",
			Channels:  p.Channels,
			ExtraIdle: p.ExtraIdle,
		},
		ReportingInterval: p.ReportingInterval,
	}
	linked := map[[2]int]bool{}
	addLink := func(a, b int) error {
		if a > b {
			a, b = b, a
		}
		linked[[2]int{a, b}] = true
		if p.FadingProb > 0 && rng.Float64() < p.FadingProb {
			f, err := drawFading(rng, p)
			if err != nil {
				return err
			}
			s.Links = append(s.Links, spec.Link{
				A:      nodeName(a),
				B:      nodeName(b),
				Fading: f,
			})
			return nil
		}
		avail := drawAvail(rng, p)
		s.Links = append(s.Links, spec.Link{
			A:            nodeName(a),
			B:            nodeName(b),
			Availability: &avail,
		})
		return nil
	}

	for i := 1; i <= n; i++ {
		s.Nodes = append(s.Nodes, spec.Node{Name: nodeName(i)})
		want := drawDepth(rng, p)
		d := placeableDepth(want, levels, p.MaxFanIn, p.MaxDepth)
		if d == 0 {
			// Unreachable while i <= NodesMax <= treeCapacity: a fleet
			// where no level has an open slot is a full fan-in tree.
			return nil, fmt.Errorf("gen: no open slot for device %d", i)
		}
		var open []int
		for _, id := range levels[d-1] {
			if children[id] < p.MaxFanIn {
				open = append(open, id)
			}
		}
		parent := open[rng.IntN(len(open))]
		children[parent]++
		parents[i] = parent
		depths[i] = d
		levels[d] = append(levels[d], i)
		if err := addLink(parent, i); err != nil {
			return nil, err
		}
	}

	// Mesh redundancy: extra links between nodes at most one depth level
	// apart keep every BFS route within the tree depth.
	if p.ExtraLinkProb > 0 {
		for i := 1; i <= n; i++ {
			if rng.Float64() >= p.ExtraLinkProb {
				continue
			}
			var cands []int
			for j := 0; j <= n; j++ {
				if j == i || abs(depths[j]-depths[i]) > 1 {
					continue
				}
				a, b := i, j
				if a > b {
					a, b = b, a
				}
				if linked[[2]int{a, b}] {
					continue
				}
				cands = append(cands, j)
			}
			if len(cands) == 0 {
				continue
			}
			if err := addLink(i, cands[rng.IntN(len(cands))]); err != nil {
				return nil, err
			}
		}
	}

	built, err := s.Build()
	if err != nil {
		return nil, fmt.Errorf("gen: network %d of seed %d does not build: %w", index, seed, err)
	}
	routes, err := built.Net.UplinkRoutes()
	if err != nil {
		return nil, fmt.Errorf("gen: network %d of seed %d: %w", index, seed, err)
	}
	if err := topology.CheckHopLimit(routes); err != nil {
		return nil, fmt.Errorf("gen: network %d of seed %d: %w", index, seed, err)
	}
	return &Generated{
		Index:     index,
		FleetSeed: seed,
		Spec:      s,
		Net:       built.Net,
		Plan:      built.Schedule,
		Routes:    routes,
		Depths:    depths,
	}, nil
}

// nodeName is the generator's naming convention: "G" for the gateway,
// "n<i>" for field device i.
func nodeName(i int) string {
	if i == 0 {
		return "G"
	}
	return fmt.Sprintf("n%d", i)
}

// drawDepth samples the hop-depth mix (uniform when no weights are set).
func drawDepth(rng *rand.Rand, p Params) int {
	if len(p.DepthWeights) == 0 {
		return 1 + rng.IntN(p.MaxDepth)
	}
	total := 0.0
	for _, w := range p.DepthWeights {
		total += w
	}
	r := rng.Float64() * total
	for d, w := range p.DepthWeights {
		r -= w
		if r < 0 {
			return d + 1
		}
	}
	return p.MaxDepth
}

// placeableDepth returns the depth closest to want (shallower preferred on
// ties, by search order deeper-first) whose parent level has an open child
// slot, or 0 if the tree is full.
func placeableDepth(want int, levels [][]int, fanIn, maxDepth int) int {
	open := func(d int) bool {
		return len(levels[d-1]) > 0 && len(levels[d]) < len(levels[d-1])*fanIn
	}
	if open(want) {
		return want
	}
	for delta := 1; delta < maxDepth; delta++ {
		if d := want + delta; d <= maxDepth && open(d) {
			return d
		}
		if d := want - delta; d >= 1 && open(d) {
			return d
		}
	}
	return 0
}

// drawFading samples a k-state uniform-mixing fading chain whose steady
// availability is one draw from the link-quality mix: the per-state
// success probabilities are spread symmetrically around the drawn
// availability, and the chain's uniform stationary distribution keeps
// the mean — hence the steady availability — exactly at the draw. The
// spread is the distance to the nearer [0,1] boundary, so a clear-sky
// draw yields a narrow fade and a marginal draw a deep one.
func drawFading(rng *rand.Rand, p Params) (*spec.Fading, error) {
	k := p.FadingStates
	if k == 0 {
		k = defaultFadingStates
	}
	stay := p.FadingStay
	if stay == 0 {
		stay = defaultFadingStay
	}
	avail := drawAvail(rng, p)
	spread := math.Min(avail, 1-avail)
	succ := make([]float64, k)
	for i := range succ {
		t := 2*float64(i)/float64(k-1) - 1
		succ[i] = avail + spread*t
	}
	m, err := link.NewUniformMixing(stay, succ)
	if err != nil {
		return nil, fmt.Errorf("gen: fading draw: %w", err)
	}
	return &spec.Fading{
		Transitions: m.TransitionMatrix(),
		Success:     m.SuccessProbs(),
	}, nil
}

// drawAvail samples the link-quality mix.
func drawAvail(rng *rand.Rand, p Params) float64 {
	lo, hi := p.AvailLo, p.AvailHi
	if p.DegradedProb > 0 && rng.Float64() < p.DegradedProb {
		lo, hi = p.DegradedLo, p.DegradedHi
	}
	return lo + rng.Float64()*(hi-lo)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
