package evloop

import "time"

// Hierarchical timing wheel (Varghese & Lauck): per-key one-shot timers
// with O(1) amortized arm/re-arm/cancel and slot-cascading expiry, the
// primitive behind every lifecycle deadline in the stack (connection idle
// timeouts, request deadlines, session TTLs, login re-issue, lockout
// expiry). A wheel belongs to one event loop: like a Shard's tables it is
// touched only by the owning goroutine, so none of this locks.
//
// Layout: wheelLevels levels of wheelSlots slots each, level L covering
// 2^(L·wheelBits) ticks per slot. A timer within 64 ticks hangs off the
// exact level-0 slot; farther timers park at the coarsest level that
// contains their delta and cascade down as the wheel turns. Timers past
// the top level's horizon park in the top slot just behind the cursor and
// re-insert one full rotation closer on each pass.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// wheelSpan is the horizon in ticks; beyond it timers clamp into the
	// top level and re-cascade.
	wheelSpan = uint64(1) << (wheelBits * wheelLevels)
)

// Wheel is a hierarchical timer wheel with a fixed tick granularity.
// All methods must be called from the owning loop goroutine.
type Wheel struct {
	start time.Time
	tick  time.Duration

	// cur is the wheel cursor: every timer with when <= cur has fired.
	cur   uint64
	slots [wheelLevels * wheelSlots]*Timer
	count int

	// hint is a lower bound on the earliest armed deadline (in ticks),
	// maintained so NextDeadline and the Advance fast-forward never scan
	// on the hot path. It goes stale low after a cancel — an early wake
	// is harmless — and is recomputed lazily once the cursor passes it.
	hint      uint64
	hintValid bool
}

// NewWheel builds a wheel whose tick granularity is tick (which bounds
// timer precision) anchored at start.
func NewWheel(start time.Time, tick time.Duration) *Wheel {
	if tick <= 0 {
		tick = wheelTick
	}
	return &Wheel{start: start, tick: tick}
}

// Timer is a one-shot timer owned by a Wheel. Arm schedules (or
// reschedules) it; the wheel's Advance calls fn once when the deadline
// passes. Timers are reusable: re-arm freely from fn itself.
type Timer struct {
	w  *Wheel
	fn func(now time.Time)

	when    uint64 // absolute tick, valid while inWheel
	slotIdx int
	inWheel bool
	next    *Timer
	prev    *Timer
}

// NewTimer creates an unarmed timer firing fn on expiry. fn runs on the
// goroutine that calls Advance — for a Shard's wheel, the loop goroutine.
func (w *Wheel) NewTimer(fn func(now time.Time)) *Timer {
	return &Timer{w: w, fn: fn}
}

// Len reports the number of armed timers.
func (w *Wheel) Len() int { return w.count }

// Empty reports whether no timer is armed.
func (w *Wheel) Empty() bool { return w.count == 0 }

func (w *Wheel) floorTick(at time.Time) uint64 {
	d := at.Sub(w.start)
	if d < 0 {
		return 0
	}
	return uint64(d / w.tick)
}

func (w *Wheel) ceilTick(at time.Time) uint64 {
	d := at.Sub(w.start)
	if d <= 0 {
		return 0
	}
	return uint64((d + w.tick - 1) / w.tick)
}

// Arm schedules the timer to fire at or shortly after at (never before;
// precision is the wheel granularity). Arming an armed timer moves its
// deadline — O(1), no allocation either way. A deadline in the past fires
// on the next Advance.
func (t *Timer) Arm(at time.Time) {
	w := t.w
	when := w.ceilTick(at)
	if when <= w.cur {
		when = w.cur + 1
	}
	if t.inWheel {
		w.unlink(t)
		w.count--
	}
	t.when = when
	w.insert(t)
	w.count++
	// A sole timer pins the hint exactly; otherwise a new deadline may
	// only LOWER a valid hint — an invalidated hint says nothing about
	// the other armed timers and must wait for the lazy rescan.
	if w.count == 1 {
		w.hint, w.hintValid = when, true
	} else if w.hintValid && when < w.hint {
		w.hint = when
	}
}

// Stop cancels the timer; it reports whether the timer was armed. O(1)
// even for timers parked at a coarse level awaiting cascade.
func (t *Timer) Stop() bool {
	if !t.inWheel {
		return false
	}
	t.w.unlink(t)
	t.w.count--
	return true
}

// Armed reports whether the timer is scheduled.
func (t *Timer) Armed() bool { return t.inWheel }

// When reports the armed deadline (zero time when unarmed).
func (t *Timer) When() time.Time {
	if !t.inWheel {
		return time.Time{}
	}
	return t.w.start.Add(time.Duration(t.when) * t.w.tick)
}

// insert places an armed timer in the coarsest level whose slot width
// still resolves its delta, so it cascades at most once per level.
func (w *Wheel) insert(t *Timer) {
	delta := t.when - w.cur
	lvl := 0
	for lvl < wheelLevels-1 && delta >= uint64(1)<<uint((lvl+1)*wheelBits) {
		lvl++
	}
	slot := int((t.when >> uint(lvl*wheelBits)) & wheelMask)
	if delta >= wheelSpan {
		// Beyond the horizon: park in the top-level slot just behind the
		// cursor; each full top rotation re-inserts it one span closer.
		slot = int(((w.cur >> uint((wheelLevels-1)*wheelBits)) + wheelMask) & wheelMask)
	}
	idx := lvl*wheelSlots + slot
	t.slotIdx = idx
	t.prev = nil
	t.next = w.slots[idx]
	if t.next != nil {
		t.next.prev = t
	}
	w.slots[idx] = t
	t.inWheel = true
}

func (w *Wheel) unlink(t *Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		w.slots[t.slotIdx] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev = nil, nil
	t.inWheel = false
}

// cascade re-homes every timer in the given slot by its absolute deadline
// (down a level, or into level 0 to fire).
func (w *Wheel) cascade(lvl, slot int) {
	idx := lvl*wheelSlots + slot
	t := w.slots[idx]
	w.slots[idx] = nil
	for t != nil {
		next := t.next
		t.next, t.prev = nil, nil
		w.insert(t)
		t = next
	}
}

// Advance turns the wheel up to now, firing every due timer, and reports
// how many fired. Empty spans are jumped in O(1); occupied spans
// fast-forward to the earliest possible deadline rather than visiting
// every tick, so an idle or sparse wheel costs nothing per elapsed tick.
func (w *Wheel) Advance(now time.Time) int {
	target := w.floorTick(now)
	fired := 0
	for w.cur < target {
		if w.count == 0 {
			w.cur = target
			w.hintValid = false
			break
		}
		if !w.hintValid {
			w.recomputeHint()
		}
		if w.hintValid && w.hint > w.cur+1 {
			// Nothing can fire before hint: jump there (bounded by
			// target), then replay the upper-level cascades a tick-by-tick
			// walk would have performed — every slot boundary the jump
			// crossed, capped at one full rotation per level — so timers
			// parked coarse (including aliased and beyond-horizon ones)
			// migrate down before firing resumes.
			jump := w.hint
			if jump > target {
				jump = target
			}
			old := w.cur
			w.cur = jump - 1
			for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
				shift := uint(lvl * wheelBits)
				crossings := (jump >> shift) - (old >> shift)
				if crossings > wheelSlots {
					crossings = wheelSlots
				}
				for k := uint64(1); k <= crossings; k++ {
					w.cascade(lvl, int(((old>>shift)+k)&wheelMask))
				}
			}
		}
		w.cur++
		for lvl := 1; lvl < wheelLevels; lvl++ {
			if w.cur&(uint64(1)<<uint(lvl*wheelBits)-1) != 0 {
				break
			}
			w.cascade(lvl, int((w.cur>>uint(lvl*wheelBits))&wheelMask))
		}
		fired += w.fireSlot(now)
		if w.hintValid && w.cur >= w.hint {
			w.hintValid = false
		}
	}
	return fired
}

// fireSlot fires every timer in the cursor's level-0 slot. Handlers may
// re-arm their own timer or arm others; insertion places those strictly
// after the cursor, so the pop loop terminates.
func (w *Wheel) fireSlot(now time.Time) int {
	idx := int(w.cur & wheelMask)
	n := 0
	for t := w.slots[idx]; t != nil; t = w.slots[idx] {
		w.unlink(t)
		if t.when > w.cur {
			// Conservatively parked here (shouldn't happen with exact
			// level-0 placement); push back rather than fire early.
			w.insert(t)
			continue
		}
		w.count--
		n++
		t.fn(now)
	}
	return n
}

// NextDeadline reports a lower bound on the earliest armed deadline and
// whether any timer is armed; a receive blocked until it can never sleep
// through an expiry (it may wake a cascade early, which Advance absorbs).
func (w *Wheel) NextDeadline() (time.Time, bool) {
	if w.count == 0 {
		return time.Time{}, false
	}
	if !w.hintValid {
		w.recomputeHint()
	}
	return w.start.Add(time.Duration(w.hint) * w.tick), true
}

// recomputeHint rescans for the earliest-deadline lower bound: per level,
// the first occupied slot ahead of the cursor (its start is the bound),
// plus an exact walk of the cursor's own coarse slot, which can hold
// timers aliased one full rotation ahead.
func (w *Wheel) recomputeHint() {
	w.hintValid = false
	if w.count == 0 {
		return
	}
	best := ^uint64(0)
	for lvl := 0; lvl < wheelLevels; lvl++ {
		shift := uint(lvl * wheelBits)
		base := w.cur >> shift
		if lvl > 0 {
			for t := w.slots[lvl*wheelSlots+int(base&wheelMask)]; t != nil; t = t.next {
				if t.when < best {
					best = t.when
				}
			}
		}
		for i := uint64(1); i <= wheelMask; i++ {
			if w.slots[lvl*wheelSlots+int((base+i)&wheelMask)] == nil {
				continue
			}
			if lb := (base + i) << shift; lb < best {
				best = lb
			}
			break
		}
	}
	if best == ^uint64(0) {
		return
	}
	if best <= w.cur {
		best = w.cur + 1
	}
	w.hint, w.hintValid = best, true
}
