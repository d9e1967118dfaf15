package pathmodel

import (
	"fmt"
	"strconv"
	"strings"

	"wirelesshart/internal/dtmc"
	"wirelesshart/internal/link"
)

// bindTol is the row-stochasticity tolerance checked on the structure's
// base kernel at build time and on every bound kernel.
const bindTol = 1e-9

// placeholderProb parameterizes the base kernel's transmission edges
// before any link model is bound. Any value in (0,1) keeps every base row
// stochastic; Bind overwrites every placeholder.
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

// ageHops is a transient state's Algorithm 1 coordinates: the message age
// t in uplink slots and the number h of hops already completed.
type ageHops struct{ t, h int }

// Structure is the cacheable, link-model-free skeleton of a path DTMC: the
// Algorithm 1 state space and the frozen CSR sparsity pattern for one
// schedule geometry. One Structure serves every scenario sharing its
// StructKey — homogeneous sweeps, failure injections and sensitivity
// perturbations alike bind their per-edge values onto the shared pattern
// with Bind, skipping both chain construction and CSR compilation. A
// Structure is immutable after BuildStructure and safe for concurrent
// Bind calls.
//
// State ids follow one fixed order: the goals R_{a_1}..R_{a_G} are
// 0..G-1, the discard state is G, and the transient states follow in
// success-first depth-first preorder from (0,0). So the absorbing states
// are exactly the ids <= discard.
type Structure struct {
	slots        []int
	fup, is, ttl int // ttl as configured (0 = default Is*Fup)

	// base is the pattern every bound kernel shares. Its values are 1 on
	// pass-through and absorbing edges and placeholders at bind slots.
	base *dtmc.Kernel

	initial int
	discard int
	goals   []int
	ages    []int
	binds   []bindSlot // ascending state id
	states  []ageHops  // transient state discard+1+i is states[i]
	// order lists the transient ids by age, ascending within each age:
	// every transient edge raises the age by one, so Solve propagates
	// all mass in one pass over it.
	order []int
}

// BuildStructure constructs the path DTMC skeleton per Algorithm 1
// (depth-first from the initial state, memoizing states by (age,
// hops-completed)) without consulting any link model: transmission edges
// get placeholder probabilities that Bind replaces. Every state's out-edges
// are arithmetic on (t, h), so the pass writes the CSR layout directly into
// slices sized up front; a counting placement then records the age-ordered
// sweep Solve walks.
func BuildStructure(slots []int, fup, is, ttl int) (*Structure, error) {
	cfg := Config{Slots: slots, Fup: fup, Is: is, TTL: ttl}
	if err := cfg.validateGeometry(); err != nil {
		return nil, err
	}
	n := len(slots)
	// The TTL never exceeds the horizon Is*Fup, so it bounds both.
	effTTL := cfg.ttl()

	// Absorbing goal states R_{a_i}, one per cycle whose arrival age is
	// within the TTL.
	a0 := slots[n-1]
	numGoals := 0
	if a0 <= effTTL {
		numGoals = min(is, (effTTL-a0)/fup+1)
	}
	discard := numGoals

	// Size the layout. (t, h) is reachable iff t < TTL and h is at most
	// the hops an all-success message has completed by age t, which is
	// the number of hop slots <= t, capped at n-1 (hop n reaches a goal).
	// It transmits iff hop h+1 is scheduled in the frame slot of age t+1.
	// layer[t] counts the transient states younger than age t; it shares
	// one allocation with the index the pass below fills.
	buf := make([]int, effTTL*n+effTTL)
	index, layer := buf[:effTTL*n], buf[effTTL*n:]
	transient, transmits := 0, 0
	done := 0
	for t := 0; t < effTTL; t++ {
		for done < n && slots[done] <= t {
			done++
		}
		hmax := min(done, n-1)
		layer[t] = transient
		transient += hmax + 1
		for h := 0; h <= hmax; h++ {
			if slots[h] == t%fup+1 {
				transmits++
			}
		}
	}
	numStates := discard + 1 + transient
	nnz := numStates + transmits

	s := &Structure{
		slots:   append([]int(nil), slots...),
		fup:     fup,
		is:      is,
		ttl:     ttl,
		discard: discard,
		goals:   make([]int, numGoals),
		ages:    make([]int, numGoals),
		binds:   make([]bindSlot, 0, transmits),
		states:  make([]ageHops, 0, transient),
	}
	rowPtr := make([]int, numStates+1)
	col := make([]int, nnz)
	val := make([]float64, nnz)
	// Absorbing goal and discard rows keep their mass through a self-loop.
	for id := 0; id <= discard; id++ {
		rowPtr[id+1] = id + 1
		col[id] = id
		val[id] = 1
		if id < discard {
			s.goals[id] = id
			s.ages[id] = a0 + id*fup
		}
	}

	// index[t*n+h] is the id of transient state (t, h), 0 while unvisited
	// (transient ids start after the discard state, so 0 is never one).
	var visit func(t, h int) int
	visit = func(t, h int) int {
		// TTL expiry: the message is dropped the moment its age reaches
		// the TTL without having arrived, so this "state" is the discard
		// state itself.
		if t >= effTTL {
			return discard
		}
		if id := index[t*n+h]; id != 0 {
			return id
		}
		id := discard + 1 + len(s.states)
		index[t*n+h] = id
		s.states = append(s.states, ageHops{t: t, h: h})
		lo := rowPtr[id]
		next := t + 1
		if t%fup+1 != slots[h] {
			// No transmission for this message in slot next: age advances.
			rowPtr[id+1] = lo + 1
			val[lo] = 1
			col[lo] = visit(next, h)
			return id
		}
		// Hop h+1 transmits during slot next: the success edge, then the
		// failure edge.
		rowPtr[id+1] = lo + 2
		val[lo], val[lo+1] = placeholderProb, 1-placeholderProb
		s.binds = append(s.binds, bindSlot{state: id, hop: h, slot: next, succ: lo, fail: lo + 1})
		if h == n-1 {
			// Final hop: success reaches the goal of the current cycle.
			col[lo] = (next - a0) / fup
		} else {
			col[lo] = visit(next, h+1)
		}
		col[lo+1] = visit(next, h)
		return id
	}
	s.initial = visit(0, 0)

	// Place the ids in ascending order into their age layers, reusing the
	// index, which the pass no longer needs.
	order := index[:transient]
	for i, st := range s.states {
		k := layer[st.t]
		order[k] = discard + 1 + i
		layer[st.t] = k + 1
	}
	s.order = order

	base, err := dtmc.NewKernel(rowPtr, col, val, bindTol)
	if err != nil {
		return nil, err
	}
	s.base = base
	return s, nil
}

// Key returns the structure's StructKey.
func (s *Structure) Key() string { return StructKey(s.slots, s.fup, s.is, s.ttl) }

// NumStates returns the structure's state count (the paper's O(Is*Fs*n)).
func (s *Structure) NumStates() int { return s.base.NumStates() }

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
	vals := s.base.ValuesCopy()
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
