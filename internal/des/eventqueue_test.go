package des

import (
	"testing"
)

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	var fired []int
	for _, tm := range []int{5, 1, 3, 2, 4} {
		tm := tm
		if err := q.Push(&Event{Time: tm, Action: func() { fired = append(fired, tm) }}); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", q.Len())
	}
	for q.Len() > 0 {
		q.Pop().Action()
	}
	for i, tm := range []int{1, 2, 3, 4, 5} {
		if fired[i] != tm {
			t.Errorf("fired[%d] = %d, want %d", i, fired[i], tm)
		}
	}
}

func TestEventQueueFIFOAmongEqualTimes(t *testing.T) {
	var q EventQueue
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		if err := q.Push(&Event{Time: 7, Action: func() { fired = append(fired, i) }}); err != nil {
			t.Fatal(err)
		}
	}
	for q.Len() > 0 {
		q.Pop().Action()
	}
	for i := range fired {
		if fired[i] != i {
			t.Fatalf("equal-time events fired out of insertion order: %v", fired)
		}
	}
}

func TestEventQueuePopEmpty(t *testing.T) {
	var q EventQueue
	if q.Pop() != nil {
		t.Error("Pop() of empty queue should be nil")
	}
	if err := q.Push(&Event{Time: 2}); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(&Event{Time: 1}); err != nil {
		t.Fatal(err)
	}
	if q.Pop().Time != 1 || q.Pop().Time != 2 {
		t.Error("Pop order wrong")
	}
}

func TestEventQueuePushValidation(t *testing.T) {
	var q EventQueue
	if err := q.Push(nil); err == nil {
		t.Error("nil event should error")
	}
	if err := q.Push(&Event{Time: -1}); err == nil {
		t.Error("negative time should error")
	}
}

func TestEventQueueInterleavedPushPop(t *testing.T) {
	var q EventQueue
	mustPush := func(tm int) {
		t.Helper()
		if err := q.Push(&Event{Time: tm}); err != nil {
			t.Fatal(err)
		}
	}
	mustPush(10)
	mustPush(5)
	if got := q.Pop().Time; got != 5 {
		t.Fatalf("first pop = %d, want 5", got)
	}
	mustPush(1)
	mustPush(20)
	want := []int{1, 10, 20}
	for _, w := range want {
		if got := q.Pop().Time; got != w {
			t.Errorf("pop = %d, want %d", got, w)
		}
	}
}
