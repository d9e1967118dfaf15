package pathmodel

import (
	"fmt"
	"strconv"

	"wirelesshart/internal/link"
)

// StructKey is the canonical identity of a path structure: the schedule
// geometry alone. Per Algorithm 1 the state space, the goal ages and the
// transmission attempts are fully determined by (Slots, Fup, Is, TTL);
// link failures, channel quality and failure injections only change
// transition values, which Bind evaluates against a cached Structure. Two
// configs with equal StructKeys share one Structure regardless of their
// link models.
func StructKey(slots []int, fup, is, ttl int) string {
	var buf [64]byte
	b := buf[:0]
	for _, v := range [...]int{fup, is, ttl} {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, '|')
	}
	for _, s := range slots {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	return string(b)
}

// Structure is the link-model-free geometry of a path model: validated
// hop slots, frame size, reporting interval and TTL, plus what Algorithm 1
// derives from them alone — the goal ages, the state count and the
// transmission attempts. One Structure serves every scenario sharing its
// StructKey; Bind evaluates a scenario's availabilities against it. A
// Structure is immutable after BuildStructure and safe for concurrent
// Bind calls.
//
// Every transient state of Algorithm 1 is a pair (t, h): message age t in
// uplink slots and h hops completed. It exists iff t < TTL and h is at
// most the hops an all-success message has completed by age t, capped at
// n-1 (hop n reaches a goal). It transmits iff hop h+1 is scheduled in
// the frame slot of age t+1; slots strictly increase within the frame, so
// each age holds at most one transmitting state.
type Structure struct {
	slots        []int
	fup, is, ttl int // ttl as configured (0 = default Is*Fup)
	effTTL       int

	// hopAt[f] is the 0-based hop scheduled in frame slot f+1, or -1.
	hopAt     []int
	ages      []int // arrival age of each goal, in cycle order
	numStates int
	attempts  int // transmitting states: one per age with a scheduled hop
}

// BuildStructure validates a schedule geometry and derives its
// Algorithm 1 goal ages and state and attempt counts, without consulting
// any link model.
func BuildStructure(slots []int, fup, is, ttl int) (*Structure, error) {
	cfg := Config{Slots: slots, Fup: fup, Is: is, TTL: ttl}
	if err := cfg.validateGeometry(); err != nil {
		return nil, err
	}
	n := len(slots)
	s := &Structure{
		slots:  append([]int(nil), slots...),
		fup:    fup,
		is:     is,
		ttl:    ttl,
		effTTL: cfg.ttl(),
		hopAt:  make([]int, fup),
	}
	for f := range s.hopAt {
		s.hopAt[f] = -1
	}
	for h, slot := range slots {
		s.hopAt[slot-1] = h
	}

	// Absorbing goal states R_{a_i}, one per cycle whose arrival age is
	// within the TTL (which never exceeds the horizon Is*Fup).
	a0 := slots[n-1]
	if a0 <= s.effTTL {
		s.ages = make([]int, min(is, (s.effTTL-a0)/fup+1))
		for i := range s.ages {
			s.ages[i] = a0 + i*fup
		}
	}
	transient, done := 0, 0
	for t := 0; t < s.effTTL; t++ {
		for done < n && slots[done] <= t {
			done++
		}
		transient += min(done, n-1) + 1
		if s.hopAt[t%fup] >= 0 {
			s.attempts++
		}
	}
	s.numStates = len(s.ages) + 1 + transient
	return s, nil
}

// Key returns the structure's StructKey.
func (s *Structure) Key() string { return StructKey(s.slots, s.fup, s.is, s.ttl) }

// NumStates returns the structure's state count (the paper's O(Is*Fs*n)):
// the goals, the discard state and the transient states.
func (s *Structure) NumStates() int { return s.numStates }

// Bind evaluates one availability function per hop at every transmission
// attempt and returns the resulting model. Attempts are taken in age
// order, the order Solve consumes them: the attempt at age t is made by
// the hop scheduled in slot t+1, so time-varying availabilities (failure
// injections, links starting down) are evaluated at that absolute slot.
// Every attempt is evaluated, including those no mass can reach, and a
// value outside [0,1] (NaN included) is an error.
func (s *Structure) Bind(avails []link.Availability) (*Model, error) {
	if len(avails) != len(s.slots) {
		return nil, fmt.Errorf("pathmodel: %d hops but %d link models", len(s.slots), len(avails))
	}
	for h, av := range avails {
		if av == nil {
			return nil, fmt.Errorf("pathmodel: hop %d has nil availability", h+1)
		}
	}
	avail := make([]float64, 0, s.attempts)
	for t := 0; t < s.effTTL; t++ {
		h := s.hopAt[t%s.fup]
		if h < 0 {
			continue
		}
		ps := avails[h](t + 1)
		if !(ps >= 0 && ps <= 1) {
			return nil, fmt.Errorf("pathmodel: hop %d availability %v at slot %d out of [0,1]", h+1, ps, t+1)
		}
		avail = append(avail, ps)
	}
	return &Model{
		cfg: Config{
			Slots: s.slots,
			Fup:   s.fup,
			Is:    s.is,
			TTL:   s.ttl,
			Links: avails,
		},
		s:     s,
		avail: avail,
	}, nil
}
