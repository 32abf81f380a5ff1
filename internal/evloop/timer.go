package evloop

import (
	"container/heap"
	"time"
)

// timers is one shard's deadline set: a binary min-heap (container/heap)
// keyed by each armed Timer's exact deadline, the engine behind every
// lifecycle clock in the stack. Like a Shard's tables it is touched only by
// the owning loop goroutine, so none of this locks. The zero value is an
// empty set.
type timers struct {
	h []*Timer
	// last is the latest advance instant. Every deadline at or before it
	// has fired, and Arm clamps new deadlines past it.
	last time.Time
}

// Timer is a one-shot timer owned by a shard. Arm schedules (or
// reschedules) it; the shard's advance calls fn once when the deadline
// passes. Timers are reusable: re-arm freely from fn itself.
type Timer struct {
	set  *timers
	fn   func(now time.Time)
	when time.Time
	idx  int // heap index; -1 while unarmed
}

func (s *timers) newTimer(fn func(now time.Time)) *Timer {
	return &Timer{set: s, fn: fn, idx: -1}
}

// heap.Interface; Len is also the armed-timer count.
func (s *timers) Len() int           { return len(s.h) }
func (s *timers) Less(i, j int) bool { return s.h[i].when.Before(s.h[j].when) }
func (s *timers) Swap(i, j int) {
	s.h[i], s.h[j] = s.h[j], s.h[i]
	s.h[i].idx, s.h[j].idx = i, j
}
func (s *timers) Push(x any) {
	t := x.(*Timer)
	t.idx = len(s.h)
	s.h = append(s.h, t)
}
func (s *timers) Pop() any {
	n := len(s.h) - 1
	t := s.h[n]
	s.h[n] = nil
	s.h = s.h[:n]
	t.idx = -1
	return t
}

// Arm schedules the timer to fire at at, exactly; arming an armed timer
// moves its deadline. A deadline at or before the latest advance is
// clamped to just after it, so it fires on the next advance to a later
// instant, never the current one: a handler that re-arms its own timer
// at now cannot loop.
func (t *Timer) Arm(at time.Time) {
	s := t.set
	if !at.After(s.last) {
		at = s.last.Add(time.Nanosecond)
	}
	t.when = at
	if t.idx >= 0 {
		heap.Fix(s, t.idx)
	} else {
		heap.Push(s, t)
	}
}

// Stop cancels the timer; it reports whether the timer was armed.
func (t *Timer) Stop() bool {
	if t.idx < 0 {
		return false
	}
	heap.Remove(t.set, t.idx)
	return true
}

// Armed reports whether the timer is scheduled.
func (t *Timer) Armed() bool { return t.idx >= 0 }

// When reports the armed deadline (zero time when unarmed).
func (t *Timer) When() time.Time {
	if t.idx < 0 {
		return time.Time{}
	}
	return t.when
}

// advance fires every timer due at now, earliest first, and reports how
// many fired. Each is popped just before its handler runs, so a timer an
// earlier handler stops in the same advance does not fire.
func (s *timers) advance(now time.Time) int {
	if now.After(s.last) {
		s.last = now
	}
	n := 0
	for len(s.h) > 0 && !s.h[0].when.After(now) {
		heap.Pop(s).(*Timer).fn(now)
		n++
	}
	return n
}

// nextDeadline reports the earliest armed deadline and whether any timer
// is armed.
func (s *timers) nextDeadline() (time.Time, bool) {
	if len(s.h) == 0 {
		return time.Time{}, false
	}
	return s.h[0].when, true
}
