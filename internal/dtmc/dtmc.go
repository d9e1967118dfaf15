// Package dtmc implements the discrete-time Markov chain engine underlying
// the WirelessHART path model: labeled states, sparse fixed-probability
// transitions, compilation to an immutable CSR kernel for transient
// analysis, and DOT export. Every chain is time-homogeneous: the path
// model encodes slot time in its age-layered states (paper Algorithm 1),
// so a chain is a fixed matrix.
package dtmc

import (
	"errors"
	"fmt"
	"math"
)

// transition is one outgoing edge of a state.
type transition struct {
	To   int
	Prob float64
}

// Chain is a labeled DTMC under construction. Create one with New, add
// states and transitions, call Validate, then Compile it for analysis.
type Chain struct {
	names     []string
	index     map[string]int
	out       [][]transition
	absorbing []bool
}

// New returns an empty chain.
func New() *Chain {
	return &Chain{index: map[string]int{}}
}

// AddState adds a state with a unique name and returns its id.
func (c *Chain) AddState(name string) (int, error) {
	if _, ok := c.index[name]; ok {
		return 0, fmt.Errorf("dtmc: duplicate state %q", name)
	}
	id := len(c.names)
	c.names = append(c.names, name)
	c.index[name] = id
	c.out = append(c.out, nil)
	c.absorbing = append(c.absorbing, false)
	return id, nil
}

// MustAddState is AddState for construction code with programmatically
// unique names; it panics on duplicates.
func (c *Chain) MustAddState(name string) int {
	id, err := c.AddState(name)
	if err != nil {
		panic(err)
	}
	return id
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int { return len(c.names) }

// Name returns the name of state id.
func (c *Chain) Name(id int) string { return c.names[id] }

// StateID looks up a state by name.
func (c *Chain) StateID(name string) (int, bool) {
	id, ok := c.index[name]
	return id, ok
}

// AddTransition adds an edge with a fixed probability.
func (c *Chain) AddTransition(from, to int, p float64) error {
	if from < 0 || from >= len(c.names) {
		return fmt.Errorf("dtmc: transition from unknown state %d", from)
	}
	if to < 0 || to >= len(c.names) {
		return fmt.Errorf("dtmc: transition to unknown state %d", to)
	}
	if c.absorbing[from] {
		return fmt.Errorf("dtmc: state %q is absorbing, cannot add outgoing transition", c.names[from])
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("dtmc: probability %v out of [0,1]", p)
	}
	c.out[from] = append(c.out[from], transition{To: to, Prob: p})
	return nil
}

// MarkAbsorbing declares a state absorbing: it keeps all probability mass.
// A state with outgoing transitions cannot be marked absorbing.
func (c *Chain) MarkAbsorbing(id int) error {
	if id < 0 || id >= len(c.names) {
		return fmt.Errorf("dtmc: unknown state %d", id)
	}
	if len(c.out[id]) > 0 {
		return fmt.Errorf("dtmc: state %q has outgoing transitions, cannot absorb", c.names[id])
	}
	c.absorbing[id] = true
	return nil
}

// IsAbsorbing reports whether state id is absorbing.
func (c *Chain) IsAbsorbing(id int) bool { return c.absorbing[id] }

// Validate checks that every non-absorbing state's outgoing probabilities
// sum to one within tol, and that every state is either absorbing or has
// outgoing transitions.
func (c *Chain) Validate(tol float64) error {
	if len(c.names) == 0 {
		return errors.New("dtmc: empty chain")
	}
	for id := range c.names {
		if c.absorbing[id] {
			continue
		}
		if len(c.out[id]) == 0 {
			return fmt.Errorf("dtmc: state %q has no outgoing transitions and is not absorbing", c.names[id])
		}
		var sum float64
		for _, tr := range c.out[id] {
			sum += tr.Prob
		}
		if math.Abs(sum-1) > tol {
			return fmt.Errorf("dtmc: state %q outgoing probabilities sum to %v", c.names[id], sum)
		}
	}
	return nil
}
