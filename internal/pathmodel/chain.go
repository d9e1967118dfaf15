package pathmodel

import (
	"fmt"
	"strings"

	"wirelesshart/internal/dtmc"
)

// chainTol is the row-stochasticity tolerance of a built chain.
const chainTol = 1e-9

// ageHops is a transient state's Algorithm 1 coordinates: the message age
// t in uplink slots and the number h of hops already completed.
type ageHops struct{ t, h int }

// chain is a bound model's Algorithm 1 DTMC written out as a transition
// matrix: the drawing of the paper's Figs. 4 and 5, the stepper behind
// Fig. 6's trajectories, and the oracle tests check Solve against. Solve
// itself never builds one.
//
// State ids follow one fixed order: the goals R_{a_1}..R_{a_G} are
// 0..G-1, the discard state is G, and the transient states follow in
// success-first depth-first preorder from (0,0). So the absorbing states
// are exactly the ids <= G.
type chain struct {
	kernel  *dtmc.Kernel
	initial int
	ages    []int     // goal arrival ages
	hops    int       // path length n
	states  []ageHops // transient state G+1+i is states[i]
}

// chain builds the model's DTMC per Algorithm 1: depth-first from the
// initial state, memoizing states by (age, hops completed), with the
// bound availabilities as transmission probabilities. Every state's
// out-edges are arithmetic on (t, h), so the pass writes the CSR layout
// straight into slices sized from the structure's counts.
func (m *Model) chain() (*chain, error) {
	s := m.s
	n := len(s.slots)
	discard := len(s.ages)
	a0 := s.slots[n-1]
	numStates := s.numStates
	transient := numStates - discard - 1

	// index[t*n+h] is the id of transient state (t, h), 0 while unvisited
	// (transient ids start after the discard state, so 0 is never one).
	index := make([]int, s.effTTL*n)
	c := &chain{ages: s.ages, hops: n, states: make([]ageHops, 0, transient)}
	rowPtr := make([]int, numStates+1)
	nnz := numStates + s.attempts
	col := make([]int, nnz)
	val := make([]float64, nnz)
	// Absorbing goal and discard rows keep their mass through a self-loop.
	for id := 0; id <= discard; id++ {
		rowPtr[id+1] = id + 1
		col[id] = id
		val[id] = 1
	}

	var visit func(t, h int) int
	visit = func(t, h int) int {
		// TTL expiry: the message is dropped the moment its age reaches
		// the TTL without having arrived, so this "state" is the discard
		// state itself.
		if t >= s.effTTL {
			return discard
		}
		if id := index[t*n+h]; id != 0 {
			return id
		}
		id := discard + 1 + len(c.states)
		index[t*n+h] = id
		c.states = append(c.states, ageHops{t: t, h: h})
		lo := rowPtr[id]
		next := t + 1
		if s.hopAt[t%s.fup] != h {
			// No transmission for this message in slot next: age advances.
			rowPtr[id+1] = lo + 1
			val[lo] = 1
			col[lo] = visit(next, h)
			return id
		}
		// Hop h+1 transmits during slot next: the success edge, then the
		// failure edge.
		rowPtr[id+1] = lo + 2
		// Every earlier frame made n attempts, and this one h so far.
		ps := m.avail[t/s.fup*n+h]
		val[lo], val[lo+1] = ps, 1-ps
		if h == n-1 {
			// Final hop: success reaches the goal of the current cycle.
			col[lo] = (next - a0) / s.fup
		} else {
			col[lo] = visit(next, h+1)
		}
		col[lo+1] = visit(next, h)
		return id
	}
	c.initial = visit(0, 0)

	kernel, err := dtmc.NewKernel(rowPtr, col, val, chainTol)
	if err != nil {
		return nil, fmt.Errorf("pathmodel: chain: %w", err)
	}
	c.kernel = kernel
	return c, nil
}

// label names state id: goal states R<age>, then Discard, then the
// transient states in the paper's age-tuple notation.
func (c *chain) label(id int) string {
	switch {
	case id < len(c.ages):
		return fmt.Sprintf("R%d", c.ages[id])
	case id == len(c.ages):
		return "Discard"
	default:
		st := c.states[id-len(c.ages)-1]
		return stateName(st.t, st.h, c.hops)
	}
}

// stateName renders a state in the paper's age-tuple notation: nodes that
// hold a copy of the message show its age, the rest show "-".
func stateName(t, h, n int) string {
	parts := make([]string, n)
	for i := 0; i < n; i++ {
		if i <= h {
			parts[i] = fmt.Sprintf("%d", t)
		} else {
			parts[i] = "-"
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}
