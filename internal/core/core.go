// Package core ties the substrates together into the paper's analysis
// pipeline: given a network topology, its uplink routes, a communication
// schedule, per-link models and a reporting interval, it builds one
// hierarchical path DTMC per source node and derives all quality-of-service
// measures — the automated tool described in the paper's Section VII.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"wirelesshart/internal/channel"
	"wirelesshart/internal/link"
	"wirelesshart/internal/measures"
	"wirelesshart/internal/pathmodel"
	"wirelesshart/internal/schedule"
	"wirelesshart/internal/stats"
	"wirelesshart/internal/topology"
)

// Analyzer computes measures for a fully specified WirelessHART network.
type Analyzer struct {
	net       *topology.Network
	routes    map[topology.NodeID]topology.Path
	sched     *schedule.Schedule
	is        int
	fdown     int
	ttl       int
	uniform   link.Process
	procs     map[topology.LinkID]link.Process
	overrides map[topology.LinkID]link.Availability
	sources   []topology.NodeID
	keys      *sourceKeys // shared with every Override copy
	structs   StructureCache
	tracer    Tracer
}

// sourceKeys holds the ProcessKey of every reporting source's path, in
// source order. The keys depend on the link processes alone, never on
// availability overrides, so they are computed once, on the first
// SourceKey call, for an analyzer and every Override copy of it.
type sourceKeys struct {
	once sync.Once
	keys []string
}

// Tracer receives stage-timing hooks from an analysis: StartSpan opens a
// named stage with alternating key, value attributes and returns the
// function that closes it, which may append attributes learned while the
// stage ran (a cache outcome). Implementations must be safe for
// concurrent use. The interface is defined here — not imported — so core
// stays free of any observability dependency; obs.Trace satisfies it
// structurally and the evaluation engine injects one per solve via
// WithTracer.
type Tracer interface {
	StartSpan(name string, attrs ...string) func(attrs ...string)
}

// StructureCache shares link-model-free path structures across analyses
// keyed by pathmodel.StructKey. A structure captures what Algorithm 1
// derives from the schedule geometry alone — the validated slots, goal
// ages and state and attempt counts — so scenarios that only differ in
// link quality or failure injections bind their values against one
// shared structure.
// Implementations must be safe for concurrent use; structures are
// immutable after construction.
type StructureCache interface {
	GetStructure(key string) (*pathmodel.Structure, bool)
	PutStructure(key string, s *pathmodel.Structure)
}

// NewStructureMap returns an unbounded, concurrency-safe StructureCache.
// New installs one when no cache is passed, so the paths of one analysis —
// and the perturbed re-analyses of a sensitivity sweep or a
// peer-composition prediction — share each geometry's state space.
// Structures depend only on schedule geometry, never on link quality, so
// entries stay valid for as long as the map lives.
func NewStructureMap() StructureCache {
	return &structureMap{m: map[string]*pathmodel.Structure{}}
}

type structureMap struct {
	mu sync.Mutex
	m  map[string]*pathmodel.Structure
}

func (c *structureMap) GetStructure(key string) (*pathmodel.Structure, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.m[key]
	return st, ok
}

func (c *structureMap) PutStructure(key string, st *pathmodel.Structure) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = st
}

// ProcessKey is the canonical identity of a steady-state path DTMC: the
// schedule geometry (slots within a Fup-slot frame), the reporting
// interval, the TTL override (0 = default), and each hop's canonical
// link-process encoding (link.Process.AppendKey). Two paths with equal
// keys build identical chains, so their solutions are interchangeable;
// process encodings are collision-free across implementations, so a
// k-state fading hop never shares a key with a two-state hop. The key is
// only meaningful for hops driven by their process's steady-state
// availability — callers must not use it when a per-slot availability
// override is in effect.
func ProcessKey(slots []int, fup, is, ttl int, procs []link.Process) string {
	b := appendGeometry(make([]byte, 0, 16+4*len(slots)+48*len(procs)), slots, fup, is, ttl)
	for _, p := range procs {
		b = append(b, '|')
		b = p.AppendKey(b)
	}
	return string(b)
}

// appendGeometry appends the schedule-geometry head of a ProcessKey.
func appendGeometry(b []byte, slots []int, fup, is, ttl int) []byte {
	for _, v := range [...]int{fup, is, ttl} {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, '|')
	}
	for _, s := range slots {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	return b
}

// Option configures an Analyzer.
type Option func(*Analyzer) error

// WithReportingInterval sets Is, the reporting interval in super-frames.
// The default is 4 (the paper's regular control).
func WithReportingInterval(is int) Option {
	return func(a *Analyzer) error {
		if is < 1 {
			return fmt.Errorf("core: reporting interval %d must be positive", is)
		}
		a.is = is
		return nil
	}
}

// WithDownlinkFrame sets Fdown, the downlink frame size in slots used for
// delay conversion. The default is the schedule's Fup (the paper's
// symmetric setup).
func WithDownlinkFrame(fdown int) Option {
	return func(a *Analyzer) error {
		if fdown < 0 {
			return fmt.Errorf("core: downlink frame %d must be non-negative", fdown)
		}
		a.fdown = fdown
		return nil
	}
}

// WithTTL overrides the message TTL in uplink slots (default: Is*Fup).
func WithTTL(ttl int) Option {
	return func(a *Analyzer) error {
		if ttl < 0 {
			return fmt.Errorf("core: TTL %d must be non-negative", ttl)
		}
		a.ttl = ttl
		return nil
	}
}

// WithUniformLinkProcess sets the link process used for every link that
// has no per-link override — the paper's homogeneous evaluations pass a
// two-state link.Model here.
func WithUniformLinkProcess(p link.Process) Option {
	return func(a *Analyzer) error {
		if p == nil {
			return errors.New("core: nil uniform link process")
		}
		a.uniform = p
		return nil
	}
}

// WithLinkProcess sets the link process of one specific link
// (inhomogeneous links): a two-state link.Model or a k-state fading
// process.
func WithLinkProcess(id topology.LinkID, p link.Process) Option {
	return func(a *Analyzer) error {
		if p == nil {
			return fmt.Errorf("core: nil process for link %d", id)
		}
		a.procs[id] = p
		return nil
	}
}

// WithLinkAvailability overrides one link's per-slot availability entirely
// (failure injection: DownDuring, Blocked, PermanentDown, ...).
func WithLinkAvailability(id topology.LinkID, av link.Availability) Option {
	return func(a *Analyzer) error {
		if av == nil {
			return fmt.Errorf("core: nil availability override for link %d", id)
		}
		a.overrides[id] = av
		return nil
	}
}

// WithStructureCache shares link-model-free path structures across
// analyzers through the given cache — the evaluation engine's structure
// cache. Every build consults it, availability overrides included: the
// structure depends only on the schedule geometry. Without it, each
// analyzer keeps a private map.
func WithStructureCache(cache StructureCache) Option {
	return func(a *Analyzer) error {
		a.structs = cache
		return nil
	}
}

// WithTracer registers a per-stage tracing hook: every path build and
// solve reports structure-cache lookups, kernel binds, transient solves
// and measure derivations as named spans. A nil tracer (the default)
// costs nothing on the solve path.
func WithTracer(t Tracer) Option {
	return func(a *Analyzer) error {
		a.tracer = t
		return nil
	}
}

// WithSources restricts the analysis to the given reporting sources; the
// remaining field devices act as pure relays and need no dedicated slots.
// The default is every routed field device.
func WithSources(sources ...topology.NodeID) Option {
	return func(a *Analyzer) error {
		if len(sources) == 0 {
			return errors.New("core: empty source list")
		}
		a.sources = sources
		return nil
	}
}

// New validates the schedule against the network's uplink routes and
// returns an analyzer. By default every link uses the paper's reference
// model (BER 2e-4, p_rc 0.9, pi(up) = 0.8304); override with
// WithUniformLinkProcess or per-link options.
func New(net *topology.Network, sched *schedule.Schedule, opts ...Option) (*Analyzer, error) {
	if net == nil || sched == nil {
		return nil, errors.New("core: network and schedule are required")
	}
	routes, err := net.UplinkRoutes()
	if err != nil {
		return nil, fmt.Errorf("core: routing failed: %w", err)
	}
	def, err := link.FromBER(channel.DefaultBER, channel.DefaultMessageBits, link.DefaultRecoveryProb)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{
		net:       net,
		routes:    routes,
		sched:     sched,
		is:        4,
		fdown:     -1, // resolved to Fup below unless set
		uniform:   def,
		procs:     map[topology.LinkID]link.Process{},
		overrides: map[topology.LinkID]link.Availability{},
		keys:      &sourceKeys{},
	}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	if a.structs == nil {
		a.structs = NewStructureMap()
	}
	if a.sources == nil {
		for src := range routes {
			a.sources = append(a.sources, src)
		}
	}
	sort.Slice(a.sources, func(i, j int) bool { return a.sources[i] < a.sources[j] })
	if err := sched.ValidateSources(net, routes, a.sources); err != nil {
		return nil, fmt.Errorf("core: schedule invalid: %w", err)
	}
	if a.fdown < 0 {
		a.fdown = sched.Fup()
	}
	return a, nil
}

// Override returns a copy of a with the per-slot availability overrides
// ov added under a's own: a link that a already overrides keeps its
// availability. The copy shares everything else with a — network, routes,
// schedule, link processes, sources, source keys, structure cache and
// tracer — and takes ownership of ov.
func (a *Analyzer) Override(ov map[topology.LinkID]link.Availability) *Analyzer {
	c := *a
	if len(a.overrides) > 0 {
		if ov == nil {
			ov = make(map[topology.LinkID]link.Availability, len(a.overrides))
		}
		for id, av := range a.overrides {
			ov[id] = av
		}
	}
	c.overrides = ov
	return &c
}

// LinkProcess returns the link process in effect for a link.
func (a *Analyzer) LinkProcess(id topology.LinkID) link.Process {
	if p, ok := a.procs[id]; ok {
		return p
	}
	return a.uniform
}

// availability returns the per-slot availability in effect for a link.
func (a *Analyzer) availability(id topology.LinkID) link.Availability {
	if av, ok := a.overrides[id]; ok {
		return av
	}
	return a.LinkProcess(id).Steady()
}

// Routes returns the uplink routes keyed by source.
func (a *Analyzer) Routes() map[topology.NodeID]topology.Path {
	out := make(map[topology.NodeID]topology.Path, len(a.routes))
	for k, v := range a.routes {
		out[k] = v
	}
	return out
}

// Fdown returns the downlink frame size used for delay conversion.
func (a *Analyzer) Fdown() int { return a.fdown }

// Is returns the reporting interval.
func (a *Analyzer) Is() int { return a.is }

// TTL returns the message TTL override in uplink slots (0 selects the
// default Is*Fup).
func (a *Analyzer) TTL() int { return a.ttl }

// Route returns one source's uplink path.
func (a *Analyzer) Route(source topology.NodeID) (topology.Path, bool) {
	p, ok := a.routes[source]
	return p, ok
}

// Sources returns the reporting sources in source-id order: the order of
// Analyze's paths and of the paths AssemblePaths takes.
func (a *Analyzer) Sources() []topology.NodeID {
	return append([]topology.NodeID(nil), a.sources...)
}

// SourceKey returns the ProcessKey of one source's path DTMC under the
// analyzer's configuration. It reports false when a hop carries an
// availability override (or the source has no route): such a chain
// depends on more than the key, so its solution must not be shared.
func (a *Analyzer) SourceKey(source topology.NodeID) (string, bool) {
	p, ok := a.routes[source]
	if !ok {
		return "", false
	}
	for h := range p.Hops() {
		if _, over := a.overrides[p.Link(h)]; over {
			return "", false
		}
	}
	i, ok := slices.BinarySearch(a.sources, source)
	if !ok {
		return a.processKey(source, p), true
	}
	k := a.keys
	k.once.Do(func() {
		k.keys = make([]string, len(a.sources))
		for i, src := range a.sources {
			k.keys[i] = a.processKey(src, a.routes[src])
		}
	})
	return k.keys[i], true
}

// processKey is the ProcessKey of source's path p under the link
// processes, overrides aside.
func (a *Analyzer) processKey(source topology.NodeID, p topology.Path) string {
	slots := a.sched.SlotsForSource(source)
	b := appendGeometry(make([]byte, 0, 16+4*len(slots)+48*p.Hops()), slots, a.sched.Fup(), a.is, a.ttl)
	for _, lid := range p.Links() {
		b = append(b, '|')
		b = a.LinkProcess(lid).AppendKey(b)
	}
	return string(b)
}

// PathAnalysis bundles the measures of one uplink path.
type PathAnalysis struct {
	// Source is the path's source node.
	Source topology.NodeID
	// Path is the routed path.
	Path topology.Path
	// Result is the raw DTMC solution.
	Result *pathmodel.Result
	// Reachability is R (Eq. 6).
	Reachability float64
	// ExpectedDelayMS is E[tau] (Eq. 9) in milliseconds.
	ExpectedDelayMS float64
	// DelayDist is the normalized delay PMF over received messages (ms).
	DelayDist *stats.PMF
	// UtilizationExact is the exact DTMC attempt fraction.
	UtilizationExact float64
	// UtilizationClosed is the corrected closed form of Eq. 10.
	UtilizationClosed float64
}

// BuildPathModel constructs the path DTMC for one source under the
// analyzer's configuration. All builds — failure injections included —
// bind their values onto a structure shared per schedule geometry.
func (a *Analyzer) BuildPathModel(source topology.NodeID) (*pathmodel.Model, error) {
	p, ok := a.routes[source]
	if !ok {
		return nil, fmt.Errorf("core: no route for source %d", source)
	}
	slots := a.sched.SlotsForSource(source)
	if len(slots) != p.Hops() {
		return nil, fmt.Errorf("core: source %d has %d slots for %d hops", source, len(slots), p.Hops())
	}
	avails := make([]link.Availability, p.Hops())
	for h, lid := range p.Links() {
		avails[h] = a.availability(lid)
	}
	return a.bind(slots, a.ttl, avails, "source", itoa(int(source)))
}

// span opens a tracing span when a Tracer is configured; without one it
// returns a shared no-op closer.
func (a *Analyzer) span(name string, attrs ...string) func(attrs ...string) {
	if a.tracer == nil {
		return noopSpanEnd
	}
	return a.tracer.StartSpan(name, attrs...)
}

// noopSpanEnd is the closer handed out when tracing is off.
func noopSpanEnd(...string) {}

// structureFor returns the path structure for one schedule geometry from
// the StructureCache, publishing a freshly built one. The "structure" span
// reports where the lookup landed: "hit" or "miss" (Algorithm 1 ran).
func (a *Analyzer) structureFor(slots []int, ttl int) (*pathmodel.Structure, error) {
	end := a.span("structure")
	key := pathmodel.StructKey(slots, a.sched.Fup(), a.is, ttl)
	if st, ok := a.structs.GetStructure(key); ok {
		end("cache", "hit")
		return st, nil
	}
	st, err := pathmodel.BuildStructure(slots, a.sched.Fup(), a.is, ttl)
	if err != nil {
		end("cache", "miss", "error", err.Error())
		return nil, err
	}
	defer end("cache", "miss")
	a.structs.PutStructure(key, st)
	return st, nil
}

// bind binds per-hop availabilities onto the structure of one schedule
// geometry, under a "bind" span carrying attrs.
func (a *Analyzer) bind(slots []int, ttl int, avails []link.Availability, attrs ...string) (*pathmodel.Model, error) {
	st, err := a.structureFor(slots, ttl)
	if err != nil {
		return nil, err
	}
	endBind := a.span("bind", attrs...)
	m, err := st.Bind(avails)
	endBind()
	return m, err
}

// itoa keeps span-attribute call sites short.
func itoa(v int) string { return strconv.Itoa(v) }

// AnalyzePath solves one source's path model and derives its measures.
func (a *Analyzer) AnalyzePath(source topology.NodeID) (*PathAnalysis, error) {
	m, err := a.BuildPathModel(source)
	if err != nil {
		return nil, err
	}
	endSolve := a.span("solve", "source", itoa(int(source)))
	res, err := m.Solve()
	endSolve()
	if err != nil {
		return nil, err
	}
	return a.MeasurePath(source, res)
}

// MeasurePath derives one source's path measures from its solved DTMC
// result — the measure half of AnalyzePath, shared with the engine, which
// owns its solves. The measures depend on the result and the downlink frame
// alone; Source and Path name the analyzer's route.
func (a *Analyzer) MeasurePath(source topology.NodeID, res *pathmodel.Result) (*PathAnalysis, error) {
	defer a.span("measures", "source", itoa(int(source)))()
	pa := &PathAnalysis{
		Source:            source,
		Path:              a.routes[source],
		Result:            res,
		Reachability:      res.Reachability(),
		UtilizationExact:  measures.UtilizationExact(res),
		UtilizationClosed: measures.UtilizationClosedForm(res, false),
	}
	if pa.Reachability > 0 {
		var err error
		if pa.DelayDist, err = measures.DelayDistribution(res, a.fdown); err != nil {
			return nil, err
		}
		pa.ExpectedDelayMS = pa.DelayDist.Mean()
	}
	return pa, nil
}

// NetworkAnalysis bundles the measures of a whole network.
type NetworkAnalysis struct {
	// Paths holds per-path analyses ordered by source node id.
	Paths []*PathAnalysis
	// OverallDelay is the network delay distribution Gamma (Fig. 14):
	// the average of the unnormalized per-path distributions.
	OverallDelay *stats.PMF
	// OverallMeanDelayMS is E[Gamma] (Eq. 13).
	OverallMeanDelayMS float64
	// UtilizationExact is the exact network utilization (Eq. 11).
	UtilizationExact float64
	// UtilizationClosed is the corrected closed-form network utilization.
	UtilizationClosed float64
}

// Analyze solves every reporting source's path in the network.
func (a *Analyzer) Analyze() (*NetworkAnalysis, error) {
	paths := make([]*PathAnalysis, len(a.sources))
	for i, src := range a.sources {
		pa, err := a.AnalyzePath(src)
		if err != nil {
			return nil, fmt.Errorf("core: path from %d: %w", src, err)
		}
		paths[i] = pa
	}
	return a.AssemblePaths(paths)
}

// AssemblePaths derives the network-scope measures (utilization, the
// overall delay distribution and its mean) from per-path analyses in
// source-id order — the aggregation tail of Analyze, shared with the
// engine. The returned analysis holds paths itself.
func (a *Analyzer) AssemblePaths(paths []*PathAnalysis) (*NetworkAnalysis, error) {
	defer a.span("measures", "scope", "network")()
	out := &NetworkAnalysis{Paths: paths}
	results := make([]*pathmodel.Result, len(paths))
	// Each delivering path's E[tau] was computed from its delay
	// distribution in MeasurePath.
	expected := make([]float64, 0, len(paths))
	for i, pa := range paths {
		out.UtilizationExact += pa.UtilizationExact
		out.UtilizationClosed += pa.UtilizationClosed
		results[i] = pa.Result
		if pa.Reachability > 0 {
			expected = append(expected, pa.ExpectedDelayMS)
		}
	}
	var err error
	if out.OverallDelay, err = measures.OverallDelay(results, a.fdown); err != nil {
		return nil, err
	}
	out.OverallMeanDelayMS, err = measures.OverallMeanDelayMS(expected)
	if err != nil && !errors.Is(err, measures.ErrNoDelivery) {
		return nil, err
	}
	return out, nil
}

// PredictPeerComposition predicts the performance of attaching a new node
// to the existing path of `via` through a peer path (paper Section VI-E,
// Fig. 11): peerModels[0] is the hop leaving the new node, the last entry
// the hop arriving at `via` (one entry for a single new hop). It solves
// the peer path's model, composes its cycle function with the existing
// path's, and reports the composed cycle probabilities and reachability.
// The peer path is assumed to get consecutive early slots in its own
// frame, as the paper's peer paths do.
func (a *Analyzer) PredictPeerComposition(via topology.NodeID, peerModels []link.Model) (cycles []float64, reach float64, err error) {
	if len(peerModels) == 0 {
		return nil, 0, fmt.Errorf("core: peer path needs at least one hop")
	}
	if len(peerModels) >= a.sched.Fup() {
		return nil, 0, fmt.Errorf("core: peer path with %d hops does not fit the %d-slot frame",
			len(peerModels), a.sched.Fup())
	}
	existing, err := a.AnalyzePath(via)
	if err != nil {
		return nil, 0, err
	}
	slots := make([]int, len(peerModels))
	avails := make([]link.Availability, len(peerModels))
	for i, m := range peerModels {
		slots[i] = i + 1
		avails[i] = m.Steady()
	}
	peer, err := a.bind(slots, 0, avails, "via", itoa(int(via)))
	if err != nil {
		return nil, 0, err
	}
	peerRes, err := peer.Solve()
	if err != nil {
		return nil, 0, err
	}
	gc, err := measures.ComposeCycles(
		measures.CycleFunction(peerRes),
		measures.CycleFunction(existing.Result),
		a.is,
	)
	if err != nil {
		return nil, 0, err
	}
	return gc, measures.CycleReachability(gc), nil
}
