// Package des is a hand-rolled discrete-event simulator of the
// WirelessHART uplink MAC: slotted TDMA with superframes, per-slot link
// state evolution (Gilbert model or channel-hopping with per-channel BER),
// message lifecycle with TTL, and per-path delivery statistics. It
// cross-validates the analytical DTMC model the way the paper's authors
// would validate against a testbed.
package des

import (
	"errors"
)

// Event is a scheduled simulator action.
type Event struct {
	// Time is the event's activation time in uplink slots from the
	// simulation start.
	Time int
	// Action runs when the event fires.
	Action func()

	seq int // insertion order, for deterministic FIFO among equal times
}

// EventQueue is a binary min-heap of events ordered by (Time, insertion
// order). The zero value is ready for use.
type EventQueue struct {
	heap []*Event
	seq  int
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.heap) }

// Push schedules an event.
func (q *EventQueue) Push(e *Event) error {
	if e == nil {
		return errors.New("des: nil event")
	}
	if e.Time < 0 {
		return errors.New("des: negative event time")
	}
	e.seq = q.seq
	q.seq++
	q.heap = append(q.heap, e)
	q.up(len(q.heap) - 1)
	return nil
}

// Pop removes and returns the earliest event, or nil if empty.
func (q *EventQueue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if len(q.heap) > 0 {
		q.down(0)
	}
	return top
}

func (q *EventQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *EventQueue) down(i int) {
	n := len(q.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
