package kernel

import "time"

// Send-path fault injection. When a FaultInjector is installed
// (WithFaultInjector), every built message consults it once — after the
// Figure 4 sender-side checks and payload copy, before queue admission —
// so an injected fault is indistinguishable from the kernel's own silent
// drops (§4): the send succeeds, the message vanishes, is duplicated, or
// arrives late. With no injector installed the cost is one nil check per
// send.

// inject applies one fault decision to each built message of a send call
// bound for owner, in send order, and returns the messages to admit in
// their place. A dropped message is freed and counted under owner's class.
// A delayed one is re-admitted on its own after the pause, so it may arrive
// after later sends — deliberate disorder, bounded by the same
// unreliability contract as everything else. A duplicate joins the call
// right behind its original, so N Sends and one N-entry SendBatch deliver
// the same sequence.
func (s *System) inject(owner *Process, msgs []*Message) []*Message {
	class := portClass(owner.name)
	kept := make([]*Message, 0, len(msgs))
	for _, m := range msgs {
		d := s.fault.Decide(class)
		var dup *Message
		if d.Dup {
			dup = cloneMsg(m)
		}
		switch {
		case d.Drop:
			freeMsg(m)
			s.countDrop(class, 1)
		case d.Delay > 0:
			s.delayMsg(owner, class, m, d.Delay)
		default:
			kept = append(kept, m)
		}
		if dup != nil {
			kept = append(kept, dup)
		}
	}
	return kept
}

// cloneMsg builds an independent copy of a built message: its own
// payload, shared (immutable) label pointers.
func cloneMsg(m *Message) *Message {
	c := getMsg()
	c.Port = m.Port
	c.Data = append([]byte(nil), m.Data...)
	c.es, c.ds, c.dr, c.v = m.es, m.ds, m.dr, m.v
	c.next = nil
	return c
}

// delayMsg re-admits msg after d, or drops it if the receiver has died or
// filled up in the meantime. The timer goroutine holds no locks when it
// fires, and publish takes only the receiver's waiter-set leaf lock to
// unpark it (lock-ordering rule 3), so delivery from a timer is as safe as
// from any sender. delayed lets harnesses quiesce before asserting on
// what was delivered.
func (s *System) delayMsg(owner *Process, class string, msg *Message, d time.Duration) {
	s.delayed.Add(1)
	time.AfterFunc(d, func() {
		defer s.delayed.Add(-1)
		if owner.admit(1) == 0 {
			freeMsg(msg)
			s.countDrop(class, 1)
			return
		}
		owner.publish(msg, msg)
	})
}
