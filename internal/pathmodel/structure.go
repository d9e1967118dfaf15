package pathmodel

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wirelesshart/internal/dtmc"
	"wirelesshart/internal/link"
)

// bindTol is the row-stochasticity tolerance applied when binding values
// onto a structure's frozen pattern, matching the chain-validation
// tolerance used at structural build time.
const bindTol = 1e-9

// placeholderProb parameterizes the structural chain's transmission edges
// before any link model is bound. Any value in (0,1) keeps the chain
// row-stochastic for validation; Bind overwrites every placeholder.
const placeholderProb = 0.5

// StructKey is the canonical identity of a path DTMC structure: the
// schedule geometry alone. Per Algorithm 1 the state space, the goal and
// discard ids, the transmit mask and the CSR sparsity pattern are fully
// determined by (Slots, Fup, Is, TTL); link failures, channel quality and
// failure injections only change transition values, which Bind fills onto
// a cached Structure. Two configs with equal StructKeys share one
// Structure regardless of their link models.
func StructKey(slots []int, fup, is, ttl int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%d|%d|", fup, is, ttl)
	for _, s := range slots {
		sb.WriteString(strconv.Itoa(s))
		sb.WriteByte(',')
	}
	return sb.String()
}

// bindSlot records where one transmission attempt's probabilities live in
// the compiled value array: Bind writes ps into succ and 1-ps into fail.
type bindSlot struct {
	state int // transient state attempting the transmission
	hop   int // 0-based hop index into the availability slice
	slot  int // absolute uplink slot of the attempt
	succ  int // value position of the success edge
	fail  int // value position of the failure edge
}

// Structure is the cacheable, link-model-free skeleton of a path DTMC: the
// Algorithm 1 state space and the frozen CSR sparsity pattern for one
// schedule geometry. One Structure serves every scenario sharing its
// StructKey — homogeneous sweeps, failure injections and sensitivity
// perturbations alike bind their per-edge values onto the shared pattern
// with Bind, skipping both chain construction and CSR compilation. A
// Structure is immutable after BuildStructure and safe for concurrent
// Bind calls.
type Structure struct {
	slots        []int
	fup, is, ttl int // ttl as configured (0 = default Is*Fup)

	chain   *dtmc.Chain  // placeholder-probability chain (structure only)
	base    *dtmc.Kernel // compiled pattern shared by every bound kernel
	baseVal []float64    // pass-through/absorbing values (1); placeholders at bind slots

	initial     int
	discard     int
	goals       []int
	ages        []int
	transmit    map[int]hopAttempt
	transmitIDs []int
	binds       []bindSlot
}

// BuildStructure constructs the path DTMC skeleton per Algorithm 1
// (depth-first from the initial state, memoizing states by (age,
// hops-completed)) without consulting any link model: transmission edges
// get placeholder probabilities that Bind replaces.
func BuildStructure(slots []int, fup, is, ttl int) (*Structure, error) {
	cfg := Config{Slots: slots, Fup: fup, Is: is, TTL: ttl}
	if err := cfg.validateGeometry(); err != nil {
		return nil, err
	}
	n := len(slots)
	horizon := is * fup
	effTTL := cfg.ttl()

	s := &Structure{
		slots:    append([]int(nil), slots...),
		fup:      fup,
		is:       is,
		ttl:      ttl,
		chain:    dtmc.New(),
		transmit: map[int]hopAttempt{},
	}

	// Absorbing goal states R_{a_i}, one per cycle whose arrival age is
	// within the TTL.
	a0 := slots[n-1]
	for i := 1; i <= is; i++ {
		age := a0 + (i-1)*fup
		if age > effTTL {
			break
		}
		id, err := s.chain.AddState(fmt.Sprintf("R%d", age))
		if err != nil {
			return nil, err
		}
		if err := s.chain.MarkAbsorbing(id); err != nil {
			return nil, err
		}
		s.goals = append(s.goals, id)
		s.ages = append(s.ages, age)
	}
	discard, err := s.chain.AddState("Discard")
	if err != nil {
		return nil, err
	}
	if err := s.chain.MarkAbsorbing(discard); err != nil {
		return nil, err
	}
	s.discard = discard

	// Transient states keyed by (age, hops completed).
	type key struct{ t, h int }
	ids := map[key]int{}
	var construct func(t, h int) (int, error)
	construct = func(t, h int) (int, error) {
		// TTL expiry / horizon: the message is dropped the moment its age
		// reaches the TTL without having arrived, so this "state" is the
		// discard state itself.
		if t >= effTTL || t >= horizon {
			return discard, nil
		}
		k := key{t: t, h: h}
		if id, ok := ids[k]; ok {
			return id, nil
		}
		id, err := s.chain.AddState(stateName(t, h, n))
		if err != nil {
			return 0, err
		}
		ids[k] = id

		next := t + 1
		frameSlot := (next-1)%fup + 1
		if frameSlot == slots[h] {
			// This path's hop h+1 transmits during slot `next`.
			s.transmit[id] = hopAttempt{hop: h, slot: next}
			if h == n-1 {
				// Final hop: success reaches the goal of the current
				// cycle.
				gi := (next - slots[n-1]) / fup
				if gi < 0 || gi >= len(s.goals) {
					return 0, fmt.Errorf("pathmodel: internal: no goal for arrival age %d", next)
				}
				if err := s.chain.AddTransition(id, s.goals[gi], placeholderProb); err != nil {
					return 0, err
				}
			} else {
				succ, err := construct(next, h+1)
				if err != nil {
					return 0, err
				}
				if err := s.chain.AddTransition(id, succ, placeholderProb); err != nil {
					return 0, err
				}
			}
			fail, err := construct(next, h)
			if err != nil {
				return 0, err
			}
			if err := s.chain.AddTransition(id, fail, 1-placeholderProb); err != nil {
				return 0, err
			}
			return id, nil
		}
		// No transmission for this message in slot `next`: age advances.
		nx, err := construct(next, h)
		if err != nil {
			return 0, err
		}
		if err := s.chain.AddTransition(id, nx, 1); err != nil {
			return 0, err
		}
		return id, nil
	}

	initial, err := construct(0, 0)
	if err != nil {
		return nil, err
	}
	s.initial = initial
	if err := s.chain.Validate(bindTol); err != nil {
		return nil, fmt.Errorf("pathmodel: constructed chain invalid: %w", err)
	}
	for id := range s.transmit {
		s.transmitIDs = append(s.transmitIDs, id)
	}
	sort.Ints(s.transmitIDs)

	// Freeze the CSR pattern and locate every transmission's value slots:
	// the success edge is always added before the failure edge, so a
	// transmit state's row is exactly [succ, fail].
	s.base = s.chain.Compile()
	s.baseVal = s.base.ValuesCopy()
	s.binds = make([]bindSlot, 0, len(s.transmitIDs))
	for _, id := range s.transmitIDs {
		at := s.transmit[id]
		lo, hi := s.base.RowSpan(id)
		if hi-lo != 2 {
			return nil, fmt.Errorf("pathmodel: internal: transmit state %d compiled to %d edges, want 2", id, hi-lo)
		}
		s.binds = append(s.binds, bindSlot{state: id, hop: at.hop, slot: at.slot, succ: lo, fail: lo + 1})
	}
	return s, nil
}

// Key returns the structure's StructKey.
func (s *Structure) Key() string { return StructKey(s.slots, s.fup, s.is, s.ttl) }

// NumStates returns the structure's state count (the paper's O(Is*Fs*n)).
func (s *Structure) NumStates() int { return s.chain.NumStates() }

// Bind fills per-edge transition values from one availability function per
// hop and returns the resulting model. The bound kernel shares the
// structure's frozen CSR pattern — row pointers and column indices — and
// carries only its own value slice, so binding a scenario (including
// failure injections and other time-varying availabilities, which are
// evaluated at each attempt's absolute slot) costs one value pass instead
// of a chain rebuild and CSR compile.
func (s *Structure) Bind(avails []link.Availability) (*Model, error) {
	if len(avails) != len(s.slots) {
		return nil, fmt.Errorf("pathmodel: %d hops but %d link models", len(s.slots), len(avails))
	}
	for h, av := range avails {
		if av == nil {
			return nil, fmt.Errorf("pathmodel: hop %d has nil availability", h+1)
		}
	}
	vals := make([]float64, len(s.baseVal))
	copy(vals, s.baseVal)
	for _, b := range s.binds {
		ps := avails[b.hop](b.slot)
		if ps < 0 || ps > 1 {
			return nil, fmt.Errorf("pathmodel: hop %d availability %v at slot %d out of [0,1]", b.hop+1, ps, b.slot)
		}
		vals[b.succ] = ps
		vals[b.fail] = 1 - ps
	}
	kernel, err := s.base.Rebind(vals, bindTol)
	if err != nil {
		return nil, fmt.Errorf("pathmodel: bind: %w", err)
	}
	return &Model{
		cfg: Config{
			Slots: s.slots,
			Fup:   s.fup,
			Is:    s.is,
			TTL:   s.ttl,
			Links: avails,
		},
		s:      s,
		kernel: kernel,
	}, nil
}
