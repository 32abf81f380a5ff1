// Package faultinject provides a deterministic, seeded fault injector for
// the kernel send path (kernel.WithFaultInjector). It exists to prove the
// stack's retry machinery converges: under the paper's unreliable IPC
// (§4) every service already tolerates silent drops, and the chaos suite
// drives whole login→session→query flows through seeded drop/duplicate/
// delay faults asserting that each flow completes or times out cleanly —
// no wedged credential pairs, no leaked handles, no privilege growth.
//
// Determinism: decisions come from a SplitMix64 stream advanced with one
// atomic add per decision, so a fixed seed yields a reproducible fault
// *rate* under any interleaving (the mapping of stream values to sends
// depends on scheduling, but counts and distributions are stable and any
// failure seed can be replayed under the same test).
package faultinject

import (
	"sync/atomic"
	"time"

	"asbestos/internal/kernel"
)

// Rule gives the fault probabilities for one port class (a kernel process
// name with shard/worker suffixes folded: "ok-demux", "idd", "worker",
// …). Class "" matches every class. Probabilities are evaluated in
// Drop → Dup → Delay order from independent draws; Drop and Delay are
// mutually exclusive per message (drop wins), Dup composes with either.
type Rule struct {
	Class    string
	Drop     float64       // P(message silently dropped)
	Dup      float64       // P(message duplicated)
	Delay    float64       // P(message delayed by DelayFor)
	DelayFor time.Duration // defaults to 2ms when a Delay rule omits it
}

// Injector implements kernel.FaultInjector with seeded pseudo-random
// decisions and per-fault counters. Safe for concurrent use.
type Injector struct {
	state  atomic.Uint64
	active atomic.Bool
	rules  []Rule

	drops  atomic.Uint64
	dups   atomic.Uint64
	delays atomic.Uint64
}

// New builds an injector from a seed and its rule table. The first rule
// matching a class wins; classes with no matching rule are untouched. The
// injector starts ACTIVE; chaos tests that must boot and drain a stack
// fault-free bracket the storm with SetActive.
func New(seed uint64, rules ...Rule) *Injector {
	inj := &Injector{rules: rules}
	inj.state.Store(seed)
	inj.active.Store(true)
	return inj
}

// SetActive turns fault decisions on or off; while inactive every Decide
// returns the zero decision without advancing the random stream. Tests use
// it to boot a stack cleanly, storm it, then drain deterministically.
func (inj *Injector) SetActive(on bool) { inj.active.Store(on) }

// rand draws the next value of the SplitMix64 stream as a float64 in
// [0, 1). One atomic add claims the stream position; the mixing is pure.
func (inj *Injector) rand() float64 {
	x := inj.state.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// Decide implements kernel.FaultInjector.
func (inj *Injector) Decide(class string) kernel.FaultDecision {
	if !inj.active.Load() {
		return kernel.FaultDecision{}
	}
	for i := range inj.rules {
		r := &inj.rules[i]
		if r.Class != "" && r.Class != class {
			continue
		}
		var d kernel.FaultDecision
		if r.Drop > 0 && inj.rand() < r.Drop {
			d.Drop = true
			inj.drops.Add(1)
		}
		if r.Dup > 0 && inj.rand() < r.Dup {
			d.Dup = true
			inj.dups.Add(1)
		}
		if !d.Drop && r.Delay > 0 && inj.rand() < r.Delay {
			d.Delay = r.DelayFor
			if d.Delay <= 0 {
				d.Delay = 2 * time.Millisecond
			}
			inj.delays.Add(1)
		}
		return d
	}
	return kernel.FaultDecision{}
}

// Drops reports messages the injector decided to drop.
func (inj *Injector) Drops() uint64 { return inj.drops.Load() }

// Dups reports messages the injector decided to duplicate.
func (inj *Injector) Dups() uint64 { return inj.dups.Load() }

// Delays reports messages the injector decided to delay.
func (inj *Injector) Delays() uint64 { return inj.delays.Load() }
