package evloop

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// ms is shorthand: base + n milliseconds.
func ms(base time.Time, n int) time.Time {
	return base.Add(time.Duration(n) * time.Millisecond)
}

// newTestTimers returns an empty timer set whose clock has advanced to
// base.
func newTestTimers() (*timers, time.Time) {
	s := &timers{}
	base := time.Unix(1000, 0)
	s.advance(base)
	return s, base
}

// TestWheelFiresInDeadlineOrder arms timers out of order — each case after
// parking the clock at park — and requires each to fire exactly at its
// deadline, in deadline order. The deadlines straddle 2^6, 2^12 and 2^18
// ms, where off-by-one deadline arithmetic tends to break, and reach past
// 2^24 ms.
func TestWheelFiresInDeadlineOrder(t *testing.T) {
	for _, tc := range []struct {
		park      int
		deadlines []int
	}{
		{0, []int{7, 3, 500, 64, 65, 4095, 4096, 100000, 2, 63, 1<<24 + 12345}},
		{62, []int{65, 63, 64}},
		{4094, []int{4097, 4095, 4096}},
		{1<<18 - 2, []int{1 << 18, 1<<18 + 1, 1<<18 - 1}},
	} {
		s, base := newTestTimers()
		s.advance(ms(base, tc.park))
		var fired []int
		for _, d := range tc.deadlines {
			s.newTimer(func(time.Time) { fired = append(fired, d) }).Arm(ms(base, d))
		}
		if s.Len() != len(tc.deadlines) {
			t.Fatalf("park %d: Len = %d, want %d", tc.park, s.Len(), len(tc.deadlines))
		}
		want := slices.Sorted(slices.Values(tc.deadlines))
		for i, d := range want {
			if n := s.advance(ms(base, d)); n != 1 {
				t.Fatalf("park %d: advance to %d fired %d, want 1", tc.park, d, n)
			}
			if fired[i] != d {
				t.Fatalf("park %d: firing order %v, want %v", tc.park, fired, want[:i+1])
			}
		}
		if s.Len() != 0 {
			t.Fatalf("park %d: %d timers left after full advance", tc.park, s.Len())
		}
	}
}

// TestWheelNeverFiresEarly arms one timer per case, after parking the
// clock at park, and advances to partial, short of the deadline. Nothing
// may fire there, nor one nanosecond before the deadline; the timer fires
// exactly at it. A stop case cancels the timer after the partial advance
// instead: it must report armed once, then unarmed, and never fire.
func TestWheelNeverFiresEarly(t *testing.T) {
	for _, tc := range []struct {
		park, d, partial int
		stop             bool
	}{
		{0, 1, 0, false},
		{0, 63, 0, false},
		{62, 64, 63, false},
		{63, 65, 64, false},
		{4094, 4096, 4095, false},
		{4095, 4097, 4096, false},
		{1<<18 - 2, 1 << 18, 1<<18 - 1, false},
		{1<<18 - 1, 1<<18 + 1, 1 << 18, false},
		{0, 1 << 24, 1<<24 - 1, false},
		{0, 1<<24 + 12345, 1 << 24, false},
		{0, 5000, 4990, true},
	} {
		s, base := newTestTimers()
		s.advance(ms(base, tc.park))
		fired := 0
		tm := s.newTimer(func(time.Time) { fired++ })
		tm.Arm(ms(base, tc.d))
		if s.advance(ms(base, tc.partial)) != 0 || fired != 0 {
			t.Fatalf("deadline %d fired at %d", tc.d, tc.partial)
		}
		if !tm.Armed() || !tm.When().Equal(ms(base, tc.d)) {
			t.Fatalf("deadline %d: Armed = %v, When = %v", tc.d, tm.Armed(), tm.When())
		}
		if tc.stop {
			if !tm.Stop() {
				t.Fatalf("deadline %d: Stop on an armed timer reported unarmed", tc.d)
			}
			if tm.Stop() {
				t.Fatalf("deadline %d: second Stop reported armed", tc.d)
			}
			if s.Len() != 0 {
				t.Fatalf("deadline %d: stopped timer still counted: %d", tc.d, s.Len())
			}
			if s.advance(ms(base, 4*tc.d)) != 0 || fired != 0 {
				t.Fatalf("deadline %d: stopped timer fired", tc.d)
			}
			continue
		}
		if s.advance(ms(base, tc.d).Add(-time.Nanosecond)) != 0 || fired != 0 {
			t.Fatalf("deadline %d fired a nanosecond early", tc.d)
		}
		if s.advance(ms(base, tc.d)) != 1 || fired != 1 {
			t.Fatalf("deadline %d did not fire on time (fired=%d)", tc.d, fired)
		}
	}
}

// TestWheelRearmMovesDeadline pins re-arming an armed timer: the deadline
// moves in both directions, and only the final deadline fires.
func TestWheelRearmMovesDeadline(t *testing.T) {
	s, base := newTestTimers()
	fired := 0
	tm := s.newTimer(func(time.Time) { fired++ })

	// Push later: the original deadline must not fire.
	tm.Arm(ms(base, 10))
	tm.Arm(ms(base, 5000))
	if s.advance(ms(base, 100)) != 0 {
		t.Fatal("stale earlier deadline fired after re-arm")
	}
	if s.Len() != 1 {
		t.Fatalf("re-arm duplicated the timer: Len = %d", s.Len())
	}
	// Pull earlier: the new deadline fires, the old one is gone.
	tm.Arm(ms(base, 200))
	if s.advance(ms(base, 200)) != 1 || fired != 1 {
		t.Fatalf("pulled-in deadline did not fire (fired=%d)", fired)
	}
	if s.advance(ms(base, 10000)) != 0 {
		t.Fatal("one-shot timer fired twice")
	}
}

// TestWheelRearmFromHandler pins the periodic idiom: a handler re-arming
// its own timer during expiry keeps firing at the cadence.
func TestWheelRearmFromHandler(t *testing.T) {
	s, base := newTestTimers()
	fired := 0
	var tm *Timer
	tm = s.newTimer(func(now time.Time) {
		fired++
		if fired < 5 {
			tm.Arm(now.Add(10 * time.Millisecond))
		}
	})
	tm.Arm(ms(base, 10))
	for i := 1; i <= 6; i++ {
		s.advance(ms(base, 10*i))
	}
	if fired != 5 {
		t.Fatalf("periodic re-arm fired %d, want 5", fired)
	}
	if s.Len() != 0 {
		t.Fatal("timer still armed after the period ended")
	}
}

// TestTimerRearmAtNowFiresNextAdvance pins Arm's clamp: a handler that
// re-arms its own timer at or before now fires on the next advance to a
// later instant, not again in the current one — so it cannot loop.
func TestTimerRearmAtNowFiresNextAdvance(t *testing.T) {
	for _, back := range []time.Duration{0, time.Millisecond, time.Hour} {
		s, base := newTestTimers()
		fired := 0
		var tm *Timer
		tm = s.newTimer(func(now time.Time) {
			// Bounded, so a missing clamp fails the count instead of
			// hanging the advance.
			if fired++; fired < 3 {
				tm.Arm(now.Add(-back))
			}
		})
		tm.Arm(ms(base, 10))
		if n := s.advance(ms(base, 10)); n != 1 || fired != 1 {
			t.Fatalf("re-arm %v before now: advance fired %d (handler ran %d), want 1", back, n, fired)
		}
		if !tm.Armed() {
			t.Fatalf("re-arm %v before now: timer not armed", back)
		}
		if n := s.advance(ms(base, 10)); n != 0 {
			t.Fatalf("re-arm %v before now: fired %d at the same instant", back, n)
		}
		if n := s.advance(ms(base, 11)); n != 1 || fired != 2 {
			t.Fatalf("re-arm %v before now: next advance fired %d, want 1", back, n)
		}
	}
}

// TestTimerStoppedByEarlierHandlerDoesNotFire pins one-at-a-time firing:
// when two timers are due in the same advance and the first handler to
// run stops the other, the other does not fire.
func TestTimerStoppedByEarlierHandlerDoesNotFire(t *testing.T) {
	for _, tc := range []struct{ a, b int }{{5, 10}, {10, 5}, {10, 10}} {
		s, base := newTestTimers()
		fired := 0
		var a, b *Timer
		a = s.newTimer(func(time.Time) { fired++; b.Stop() })
		b = s.newTimer(func(time.Time) { fired++; a.Stop() })
		a.Arm(ms(base, tc.a))
		b.Arm(ms(base, tc.b))
		if n := s.advance(ms(base, 20)); n != 1 || fired != 1 {
			t.Fatalf("deadlines %d/%d: advance fired %d (handlers ran %d), want 1", tc.a, tc.b, n, fired)
		}
		if a.Armed() || b.Armed() || s.Len() != 0 {
			t.Fatalf("deadlines %d/%d: a timer is still armed", tc.a, tc.b)
		}
	}
}

// TestWheelNextDeadline pins the recvNext contract: the exact earliest
// armed deadline, absent when idle.
func TestWheelNextDeadline(t *testing.T) {
	s, base := newTestTimers()
	if _, ok := s.nextDeadline(); ok {
		t.Fatal("idle set reported a deadline")
	}
	fired := 0
	a := s.newTimer(func(time.Time) { fired++ })
	b := s.newTimer(func(time.Time) { fired++ })
	a.Arm(ms(base, 5000))
	b.Arm(ms(base, 70))
	if dl, ok := s.nextDeadline(); !ok || !dl.Equal(ms(base, 70)) {
		t.Fatalf("NextDeadline = %v, want %v", dl, ms(base, 70))
	}
	b.Stop()
	dl, ok := s.nextDeadline()
	if !ok || !dl.Equal(ms(base, 5000)) {
		t.Fatalf("NextDeadline after Stop = %v, want %v", dl, ms(base, 5000))
	}
	if s.advance(dl) != 1 || fired != 1 {
		t.Fatal("advancing to NextDeadline did not fire its timer")
	}
	if _, ok := s.nextDeadline(); ok {
		t.Fatal("drained set reported a deadline")
	}
}

// Timer-model ops: every op is timerOpLen bytes, a kind, a big-endian
// uint16 entry index and a big-endian uint16 argument in milliseconds.
const (
	timerOpArm     = iota // arm (or re-arm) entry at now + 1 + arg
	timerOpArmPast        // arm entry at now - arg: the clamp path
	timerOpStop           // stop entry
	timerOpAdvance        // advance the clock by arg
	timerOpKinds

	timerOpLen   = 5
	timerEntries = 400
)

// seed42Ops encodes the randomized run that preceded the fuzz target:
// 5000 seeded arms, stops and advances over 400 timers.
func seed42Ops() []byte {
	rng := rand.New(rand.NewSource(42))
	var ops []byte
	op := func(kind byte, entry, arg int) {
		ops = append(ops, kind)
		ops = binary.BigEndian.AppendUint16(ops, uint16(entry))
		ops = binary.BigEndian.AppendUint16(ops, uint16(arg))
	}
	for step := 0; step < 5000; step++ {
		switch k := rng.Intn(10); {
		case k < 5:
			e := rng.Intn(timerEntries)
			op(timerOpArm, e, rng.Intn(9000))
		case k < 7:
			op(timerOpStop, rng.Intn(timerEntries), 0)
		default:
			op(timerOpAdvance, 0, rng.Intn(300))
		}
	}
	return ops
}

// FuzzTimersMatchModel drives a timer set and a naive model — one
// deadline per entry, in nanoseconds past base, -1 when unarmed — through
// the same op stream. After every op the set's Len and the touched
// entry's Armed and When must match the model. Every advance must fire
// exactly the entries the model has due, in deadline order, and leave
// NextDeadline at the model's earliest remaining deadline. A final far
// advance drains every armed entry exactly once.
func FuzzTimersMatchModel(f *testing.F) {
	f.Add(seed42Ops())
	f.Add([]byte{timerOpArm, 0, 1, 0, 9, timerOpArmPast, 0, 1, 0, 3, timerOpAdvance, 0, 0, 0, 0, timerOpAdvance, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s, base := newTestTimers()
		at := func(ns int64) time.Time { return base.Add(time.Duration(ns)) }
		var (
			now, live int64
			model     [timerEntries]int64
			tms       [timerEntries]*Timer
			fired     []int
		)
		for i := range tms {
			model[i] = -1
			tms[i] = s.newTimer(func(time.Time) { fired = append(fired, i) })
		}
		advance := func(step int, to int64) {
			t.Helper()
			now, fired = to, fired[:0]
			n := s.advance(at(now))
			due, next := 0, int64(-1)
			for _, d := range model {
				switch {
				case d < 0:
				case d <= now:
					due++
				case next < 0 || d < next:
					next = d
				}
			}
			if n != len(fired) || n != due {
				t.Fatalf("op %d: advance reported %d, fired %d, model due %d", step, n, len(fired), due)
			}
			for k, i := range fired {
				if model[i] < 0 || model[i] > now {
					t.Fatalf("op %d: entry %d fired with model deadline %d at %d", step, i, model[i], now)
				}
				if k > 0 && model[fired[k-1]] > model[i] {
					t.Fatalf("op %d: entry %d fired after a later deadline", step, i)
				}
			}
			for _, i := range fired {
				model[i] = -1
			}
			live -= int64(n)
			if dl, ok := s.nextDeadline(); ok != (next >= 0) || ok && !dl.Equal(at(next)) {
				t.Fatalf("op %d: NextDeadline = %v, %v; model %d ns", step, dl, ok, next)
			}
		}
		for step := 0; step+timerOpLen <= len(ops); step += timerOpLen {
			i := int(binary.BigEndian.Uint16(ops[step+1:])) % timerEntries
			arg := int64(binary.BigEndian.Uint16(ops[step+3:])) * int64(time.Millisecond)
			switch kind := ops[step] % timerOpKinds; kind {
			case timerOpArm, timerOpArmPast:
				if model[i] < 0 {
					live++
				}
				if kind == timerOpArm {
					model[i] = now + int64(time.Millisecond) + arg
					tms[i].Arm(at(model[i]))
				} else {
					model[i] = now + 1 // the clamp: just after the latest advance
					tms[i].Arm(at(now - arg))
				}
			case timerOpStop:
				if was := tms[i].Stop(); was != (model[i] >= 0) {
					t.Fatalf("op %d: Stop = %v with model deadline %d", step, was, model[i])
				}
				if model[i] >= 0 {
					live--
				}
				model[i] = -1
			case timerOpAdvance:
				advance(step, now+arg)
			}
			if int64(s.Len()) != live || tms[i].Armed() != (model[i] >= 0) ||
				model[i] >= 0 && !tms[i].When().Equal(at(model[i])) {
				t.Fatalf("op %d: Len=%d entry %d armed=%v when=%v; model %d live, deadline %d ns",
					step, s.Len(), i, tms[i].Armed(), tms[i].When(), live, model[i])
			}
		}
		advance(len(ops), now+int64(1<<17)*int64(time.Millisecond))
		if s.Len() != 0 {
			t.Fatalf("set retains %d timers after drain", s.Len())
		}
	})
}

// BenchmarkTimers measures an arm–stop–arm triple per operation, firing
// anything due every 64 operations, against a standing population of
// armed timers: 2, the most any shard held under the gated workloads, and
// 10 000, the largest session count on the paper's Figure 7 axis.
func BenchmarkTimers(b *testing.B) {
	for _, size := range []int{2, 10_000} {
		b.Run(fmt.Sprintf("armed=%d", size), func(b *testing.B) {
			s, base := newTestTimers()
			rng := rand.New(rand.NewSource(7))
			tms := make([]*Timer, size)
			for i := range tms {
				tms[i] = s.newTimer(func(time.Time) {})
				tms[i].Arm(ms(base, 1+rng.Intn(1<<20)))
			}
			cursor := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm := tms[i%size]
				tm.Arm(ms(base, cursor+1+rng.Intn(1<<16)))
				tm.Stop()
				tm.Arm(ms(base, cursor+1+rng.Intn(1<<16)))
				if i%64 == 0 {
					cursor += 16
					s.advance(ms(base, cursor))
				}
			}
		})
	}
}
