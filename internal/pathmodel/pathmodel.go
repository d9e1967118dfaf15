// Package pathmodel builds the paper's hierarchical path DTMC (Section IV,
// Algorithm 1): for an n-hop uplink path with a communication schedule, a
// reporting interval of Is super-frames and a TTL, it constructs the
// absorbing DTMC over message-age states whose transition probabilities are
// inherited from per-hop link availability functions.
//
// The construction is split into two phases. BuildStructure validates the
// schedule geometry (Slots, Fup, Is, TTL) and derives what depends on it
// alone: the goal ages and the state and attempt counts. Link models,
// channel quality and failure injections only change transition values,
// which Structure.Bind evaluates once per transmission attempt. Build
// composes the two. Solve then runs Algorithm 1's chain as a recursion
// over message ages without writing the chain out, and GoalTrajectories
// reads the Fig. 6 curves off its result. The explicit transition matrix
// is built only for the DOT drawing and for the tests that step it.
//
// # Time convention
//
// Ages count uplink slots from the start of the reporting interval. The
// message is born with age 0; the transmission scheduled in frame slot s
// executes as the transition entering age s, so a message whose final hop
// is scheduled in slot a0 can first reach the gateway with age a0 and, in
// cycle i, with age a_i = a0 + (i-1)*Fup (the paper's goal states R_{a_i}).
// Downlink slots are excluded: uplink messages sleep through them, so both
// ages and the TTL advance only on uplink slots; the conversion to wall
// time happens in the measures package.
package pathmodel

import (
	"errors"
	"fmt"
	"io"

	"wirelesshart/internal/link"
)

// Config specifies a path model.
type Config struct {
	// Slots holds the 1-based frame slot of each hop's dedicated
	// transmission, strictly increasing within the frame (hop h's
	// transmission happens in slot Slots[h] of every super-frame).
	Slots []int
	// Fup is the uplink frame size in slots; all slots must lie in
	// [1, Fup].
	Fup int
	// Is is the reporting interval in super-frames (cycles); the model's
	// horizon is Is*Fup uplink slots.
	Is int
	// TTL is the message time-to-live in uplink slots. Zero selects the
	// default Is*Fup (discard exactly at the end of the reporting
	// interval). It cannot exceed Is*Fup.
	TTL int
	// Links holds one availability function per hop; Links[h](t) is the
	// probability that hop h's link is UP during uplink slot t (1-based).
	Links []link.Availability
}

// validateGeometry checks the structural (link-model-free) part of the
// configuration: slots, frame size, reporting interval and TTL.
func (c Config) validateGeometry() error {
	if len(c.Slots) == 0 {
		return errors.New("pathmodel: path needs at least one hop")
	}
	if c.Fup < 1 {
		return fmt.Errorf("pathmodel: frame size %d must be positive", c.Fup)
	}
	if c.Is < 1 {
		return fmt.Errorf("pathmodel: reporting interval %d must be positive", c.Is)
	}
	prev := 0
	for h, s := range c.Slots {
		if s < 1 || s > c.Fup {
			return fmt.Errorf("pathmodel: hop %d slot %d out of [1,%d]", h+1, s, c.Fup)
		}
		if s <= prev {
			return fmt.Errorf("pathmodel: hop slots must be strictly increasing, got %v", c.Slots)
		}
		prev = s
	}
	if c.TTL < 0 || c.TTL > c.Is*c.Fup {
		return fmt.Errorf("pathmodel: TTL %d out of [0,%d]", c.TTL, c.Is*c.Fup)
	}
	return nil
}

// ttl returns the effective TTL.
func (c Config) ttl() int {
	if c.TTL == 0 {
		return c.Is * c.Fup
	}
	return c.TTL
}

// Model is a path DTMC with one scenario bound: a shared Structure plus
// the availability of every transmission attempt, in age order.
type Model struct {
	cfg   Config
	s     *Structure
	avail []float64
}

// Build constructs the path model per Algorithm 1: the geometry's
// Structure, then a Bind of the link models. Callers evaluating many
// scenarios over one schedule geometry may cache the Structure (see
// BuildStructure) and Bind per scenario instead.
func Build(cfg Config) (*Model, error) {
	s, err := BuildStructure(cfg.Slots, cfg.Fup, cfg.Is, cfg.TTL)
	if err != nil {
		return nil, err
	}
	return s.Bind(cfg.Links)
}

// Structure returns the model's underlying shared structure. No
// production code calls it; it stays because the benchmark ladder in
// bench/ groups its solves by structure.
func (m *Model) Structure() *Structure { return m.s }

// WriteDOT renders the model's DTMC in Graphviz DOT format, the paper's
// Figs. 4 and 5: goal states R<age>, the Discard state and the age-tuple
// transient states.
func (m *Model) WriteDOT(w io.Writer, title string) error {
	return m.chain().writeDOT(w, title)
}

// GoalAges returns the arrival ages a_i of the goal states in cycle order.
func (m *Model) GoalAges() []int {
	out := make([]int, len(m.s.ages))
	copy(out, m.s.ages)
	return out
}

// NumStates returns the model's state count (the paper's O(Is*Fs*n)).
func (m *Model) NumStates() int { return m.s.NumStates() }

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }
