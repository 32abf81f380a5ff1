package kernel

import (
	"slices"
	"sync"
	"testing"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/label"
)

// Each half of Figure 4 has one kernel path: sendBatchVia for the send
// (Port.Send is a one-entry SendBatch) and scan for the receive. These tests
// pin that the two send entry points share every sender-side outcome —
// privilege rejects, drop accounting, injected faults — and that the one
// receive check is the paper's rule.

// TestSendRejectCounted: a send the sender may not make (DecontSend grants
// ⋆ for a handle it does not hold) returns ErrPrivilege and is counted as
// exactly one drop, whether it goes through Send or a one-entry SendBatch —
// under "reject:<class>" to a live port, under "reject" to a dead one — and
// DropStats still sums to Drops.
func TestSendRejectCounted(t *testing.T) {
	s := NewSystem(WithSeed(31))
	rx := s.NewProcess("rx")
	live := rx.Open(nil)
	if err := live.SetLabel(label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	dead := rx.Open(nil)
	if err := dead.Dissociate(); err != nil {
		t.Fatal(err)
	}
	foreign := rx.NewHandle()
	tx := s.NewProcess("tx")
	bad := &SendOpts{DecontSend: Grant(foreign)}

	sends := map[string]func(*Port) error{
		"Send":      func(pt *Port) error { return pt.Send([]byte("x"), bad) },
		"SendBatch": func(pt *Port) error { return pt.SendBatch([]BatchEntry{{Data: []byte("x"), Opts: bad}}) },
	}
	for _, dest := range []struct {
		name, class string
		port        *Port
	}{
		{"live", "reject:rx", tx.Port(live.Handle())},
		{"dead", "reject", tx.Port(dead.Handle())},
	} {
		for _, via := range []string{"Send", "SendBatch"} {
			drops, before := s.Drops(), s.DropStats()[dest.class]
			if err := sends[via](dest.port); err != ErrPrivilege {
				t.Fatalf("%s to %s port = %v, want ErrPrivilege", via, dest.name, err)
			}
			if got := s.DropStats()[dest.class] - before; got != 1 {
				t.Errorf("%s to %s port: DropStats[%q] rose by %d, want 1", via, dest.name, dest.class, got)
			}
			if got := s.Drops() - drops; got != 1 {
				t.Errorf("%s to %s port: Drops rose by %d, want 1", via, dest.name, got)
			}
			var sum uint64
			for _, n := range s.DropStats() {
				sum += n
			}
			if sum != s.Drops() {
				t.Errorf("DropStats sums to %d, Drops = %d", sum, s.Drops())
			}
		}
	}
	if d, _ := rx.TryRecv(); d != nil {
		t.Fatalf("a rejected send was delivered: %q", d.Data)
	}
}

// scriptedFaults is a FaultInjector that plays a fixed script, one decision
// per message in send order.
type scriptedFaults struct {
	mu      sync.Mutex
	script  []FaultDecision
	n       int
	classes []string
}

func (f *scriptedFaults) Decide(class string) FaultDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.classes = append(f.classes, class)
	d := f.script[f.n%len(f.script)]
	f.n++
	return d
}

// TestFaultInjectionSendMatchesBatch drives one fault script through the
// send path twice — as N Sends and as one N-entry SendBatch — and checks
// both against the script: drops vanish and are counted under the
// receiver's class, duplicates arrive beside their originals, delayed
// messages arrive late, and the delay timers all fire.
func TestFaultInjectionSendMatchesBatch(t *testing.T) {
	const delay = 20 * time.Millisecond
	script := []FaultDecision{
		{},                        // 0 delivered
		{Drop: true},              // 1 dropped
		{Dup: true},               // 2 delivered twice
		{Delay: delay},            // 3 delivered late
		{},                        // 4 delivered
		{Dup: true, Drop: true},   // 5 only the duplicate is delivered
		{Dup: true, Delay: delay}, // 6 the duplicate now, the original late
		{},                        // 7 delivered
	}
	// The immediate deliveries, in order; the delayed ones may land anywhere
	// after their send.
	immediate := []byte{0, 2, 2, 4, 5, 6, 7}
	delayed := []byte{3, 6}

	for _, batch := range []bool{false, true} {
		name := map[bool]string{false: "Send", true: "SendBatch"}[batch]
		faults := &scriptedFaults{script: script}
		s := NewSystem(WithSeed(37), WithFaultInjector(faults))
		rx := s.NewProcess("rx")
		inbox := rx.Open(nil)
		if err := inbox.SetLabel(label.Empty(label.L3)); err != nil {
			t.Fatal(err)
		}
		out := s.NewProcess("tx").Port(inbox.Handle())

		if batch {
			entries := make([]BatchEntry, len(script))
			for i := range entries {
				entries[i] = BatchEntry{Data: []byte{byte(i)}}
			}
			if err := out.SendBatch(entries); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := range script {
				if err := out.Send([]byte{byte(i)}, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.DelayedInFlight() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: DelayedInFlight = %d after 10s", name, s.DelayedInFlight())
			}
			time.Sleep(time.Millisecond)
		}
		var got []byte
		for d := range inbox.Drain() {
			got = append(got, d.Data[0])
		}

		if !isSubsequence(immediate, got) {
			t.Errorf("%s: delivered %v; want %v in order, plus %v late", name, got, immediate, delayed)
		}
		want := slices.Sorted(slices.Values(append(slices.Clone(immediate), delayed...)))
		if sorted := slices.Sorted(slices.Values(got)); !slices.Equal(sorted, want) {
			t.Errorf("%s: delivered %v, want the multiset %v", name, got, want)
		}
		if st := s.DropStats(); st["rx"] != 2 || s.Drops() != 2 {
			t.Errorf("%s: drops %d, DropStats %v; want 2 under \"rx\"", name, s.Drops(), st)
		}
		if faults.n != len(script) {
			t.Errorf("%s: injector consulted %d times, want %d", name, faults.n, len(script))
		}
		for _, c := range faults.classes {
			if c != "rx" {
				t.Errorf("%s: injector asked about class %q, want \"rx\"", name, c)
			}
		}
	}
}

// isSubsequence reports whether sub occurs in seq in order.
func isSubsequence(sub, seq []byte) bool {
	i := 0
	for _, x := range seq {
		if i < len(sub) && sub[i] == x {
			i++
		}
	}
	return i == len(sub)
}

// FuzzDeliverableMatchesNaiveRule checks the receive-side half of Figure 4
// — the only one, since every receive and checkpoint runs it through scan —
// against the rule as the paper states it, computed on the map-based
// reference labels:
//
//	DR ⊑ pR  ∧  ES ⊑ ((QR ⊔ DR) ⊓ V ⊓ pR)
//
// The receive label QR spans up to a few thousand entries across chunks,
// as a trusted server's does; ES, DR, V and pR are small and land on and
// between QR's handles, so both deliverable's pointwise fast path and its
// general bound are exercised.
func FuzzDeliverableMatchesNaiveRule(f *testing.F) {
	f.Add([]byte{})
	// Levels are bytes mod 5: ⋆=0, L0=1, L1=2, L2=3, L3=4.
	// A 2000-entry clearance at L3 over a default of L2, and ES tainted at
	// one of its handles under default DR, V and pR: the demux's common
	// receive, decided by the pointwise fast path.
	f.Add([]byte{3, 7, 208, 1, 1, 4, 0, 2, 1, 0, 41, 4, 0, 0, 4, 0, 4, 0})
	// ES's default above the fast path's floor, delivered through the
	// general bound: QR holds two handles low, ES holds them lower still.
	f.Add([]byte{4, 0, 2, 9, 0, 3, 0, 4, 2, 0, 9, 2, 0, 10, 3, 0, 0, 4, 0, 4, 0})
	// DR raising a handle that pR does not allow: requirement 4 fails.
	f.Add([]byte{3, 0, 100, 5, 2, 1, 2, 2, 0, 0, 1, 0, 9, 4, 4, 0, 3, 0})
	// A 3000-entry QR cycling through every level; a privileged ES tainted
	// at a handle QR clears.
	f.Add([]byte{3, 11, 184, 0, 1, 3, 1, 0, 1, 0, 2, 4, 0, 0, 4, 0, 4, 0})
	// The same, with V restricting that handle: requirement 1 fails.
	f.Add([]byte{3, 11, 184, 0, 1, 3, 1, 0, 1, 0, 2, 4, 0, 0, 4, 1, 0, 2, 3, 4, 0})
	// pR holding a handle below ES's default that ES does not name:
	// requirement 1 fails where only pR has an entry.
	f.Add([]byte{3, 7, 208, 1, 1, 4, 0, 2, 0, 0, 0, 4, 0, 4, 1, 0, 41, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		lvl := func() label.Level { return label.Level(next() % 5) }

		// QR: count entries from start at stride, levels cycling from a
		// seed, over a default.
		qr := label.NewSimple(lvl())
		count := (next()<<8 | next()) % 4096
		start, stride := 1+next(), 1+next()%4
		l0, step := next(), next()
		for i := 0; i < count; i++ {
			if l := label.Level((l0 + i*step) % 5); l != qr.Def {
				qr.M[handle.Handle(start+i*stride)] = l
			}
		}
		span := start + count*stride + 8
		small := func() *label.Simple {
			s := label.NewSimple(lvl())
			for k := next() % 5; k > 0; k-- {
				h := handle.Handle(1 + (next()<<8|next())%span)
				if l := lvl(); l != s.Def {
					s.M[h] = l
				} else {
					delete(s.M, h)
				}
			}
			return s
		}
		es, dr, v, pr := small(), small(), small(), small()

		want := dr.Leq(pr) && es.Leq(qr.Lub(dr).Glb(v).Glb(pr))
		m := &Message{es: es.ToLabel(), dr: dr.ToLabel(), v: v.ToLabel()}
		if got := deliverable(m, qr.ToLabel(), pr.ToLabel()); got != want {
			t.Fatalf("deliverable = %v, naive rule = %v\nES %v\nDR %v\nV  %v\npR %v\nQR %d entries",
				got, want, m.es, m.dr, m.v, pr.ToLabel(), len(qr.M))
		}
	})
}
