package kernel

import (
	"testing"

	"asbestos/internal/handle"
	"asbestos/internal/label"
	"asbestos/internal/mem"
)

func TestEPOwnedPortLabelControl(t *testing.T) {
	// Only the owning event process context may change an EP port's label;
	// the base context (or another EP) may not.
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("a"), nil)
	client.Port(svc).Send([]byte("b"), nil)

	_, ep1, _ := w.Checkpoint()
	p1 := w.Open(nil).Handle()
	if err := w.SetPortLabel(p1, label.Empty(label.L3)); err != nil {
		t.Fatalf("owner EP cannot set its port label: %v", err)
	}
	w.Yield()

	_, ep2, _ := w.Checkpoint()
	if ep1.ID() == ep2.ID() {
		t.Fatal("expected a different event process")
	}
	// ep2 tries to manage ep1's port: same process, wrong context.
	if err := w.SetPortLabel(p1, label.Empty(label.L2)); err != ErrNotOwner {
		t.Fatalf("sibling EP touched foreign port: %v", err)
	}
	if err := w.Dissociate(p1); err != ErrNotOwner {
		t.Fatalf("sibling EP dissociated foreign port: %v", err)
	}
	w.Yield()
}

func TestForkFromEventProcessContext(t *testing.T) {
	// Fork in the EP realm copies the *event process's* labels — an EP has
	// all the power of an ordinary process (§6.1).
	s := newSys()
	w, svc := workerHarness(t, s)
	owner := s.NewProcess("owner")
	hT := owner.NewHandle()
	owner.Port(svc).Send([]byte("go"), &SendOpts{
		Contaminate: Taint(label.L3, hT),
		DecontRecv:  AllowRecv(label.L3, hT),
	})
	_, _, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	child := w.Fork("ep-child")
	if child.SendLabel().Get(hT) != label.L3 {
		t.Fatal("child must inherit the event process's taint")
	}
	w.Yield()
}

func TestVerificationLabelRestrictsDelivery(t *testing.T) {
	// V also *restricts*: a sender can voluntarily tighten the effective
	// receive bound below what the receiver would accept (temporary
	// voluntary restriction, §3).
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	hX := s.NewProcess("owner").NewHandle() // p holds no ⋆ for hX
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	// p taints itself at 2 (passes q's default receive label of 2)...
	p.ContaminateSelf(Taint(label.L2, hX))
	p.Port(port).Send([]byte("loose"), nil)
	if d, _ := q.TryRecv(); d == nil {
		t.Fatal("level-2 taint should deliver by default")
	}
	// ...but with V = {hX 1, 3} the sender demands its own taint be ≤ 1,
	// which fails: the kernel drops p's own message.
	p.Port(port).Send([]byte("strict"), &SendOpts{
		Verify: label.New(label.L3, label.Entry{H: hX, L: label.L1})})
	if d, _ := q.TryRecv(); d != nil {
		t.Fatal("self-restricting V should have blocked delivery")
	}
}

func TestContaminateFusedMatchesComposition(t *testing.T) {
	// The fused Contaminate must equal QS ⊔ (ES ⊓ QS⋆) (Equation 5).
	s := newSys()
	p := s.NewProcess("p")
	h1 := p.NewHandle()
	h2 := p.NewHandle()
	qs := label.New(label.L1,
		label.Entry{H: h1, L: label.Star},
		label.Entry{H: h2, L: label.L0})
	es := label.New(label.L1,
		label.Entry{H: h1, L: label.L3},
		label.Entry{H: h2, L: label.L2})
	want := qs.Lub(es.Glb(qs.StarRestrict()))
	got := qs.Contaminate(es)
	if !got.Eq(want) {
		t.Fatalf("fused %v != composed %v", got, want)
	}
}

func TestQueueLenAndCurrentDiagnostics(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	p.Port(port).Send([]byte("1"), nil)
	p.Port(port).Send([]byte("2"), nil)
	if q.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d", q.QueueLen())
	}
	if q.Current() != nil {
		t.Fatal("no EP should be current outside the realm")
	}
}

func TestMemStatsCountsQueuedPayloadAndPages(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	base := s.MemStats()
	p.Port(port).Send(make([]byte, 1000), nil)
	grown := s.MemStats()
	if grown.KernelBytes-base.KernelBytes < 1000 {
		t.Fatal("queued payload must be charged to kernel memory")
	}
	p.Memory().WriteAt(0, make([]byte, 2*mem.PageSize))
	if s.MemStats().UserPages != base.UserPages+2 {
		t.Fatalf("user pages = %d, want +2", s.MemStats().UserPages)
	}
}

func TestSendOptsNilEquivalentToDefaults(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	if err := p.Port(port).Send([]byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Port(port).Send([]byte("b"), &SendOpts{}); err != nil {
		t.Fatal(err)
	}
	d1, _ := q.TryRecv()
	d2, _ := q.TryRecv()
	if d1 == nil || d2 == nil {
		t.Fatal("both forms must deliver")
	}
	if !d1.V.Eq(d2.V) {
		t.Fatal("default V must match")
	}
}

func TestDropPrivilegeKeepsDelivery(t *testing.T) {
	// After dropping ⋆ for its own port, a process can no longer send to
	// it (it loses the capability like anyone else).
	s := newSys()
	p := s.NewProcess("p")
	port := p.Open(nil).Handle()
	if err := p.DropPrivilege(port, label.L1); err != nil {
		t.Fatal(err)
	}
	p.Port(port).Send([]byte("self"), nil)
	if d, _ := p.TryRecv(); d != nil {
		t.Fatal("send should fail after dropping own port capability")
	}
}

// A process may pass any handle value to a system call. Ones no label can
// hold — the reserved zero handle, values past the 61-bit handle space — name
// nothing: they read at the label's default, so dropping is a no-op, raising
// is refused, and neither disturbs the kernel.
func TestPrivilegeCallsOnInvalidHandle(t *testing.T) {
	s := newSys()
	p := s.NewProcess("p")
	p.NewHandle() // a non-empty send label, so lookups reach a chunk
	send, recv := p.SendLabel(), p.RecvLabel()
	for _, bad := range []handle.Handle{handle.None, handle.MaxHandle + 1} {
		if err := p.DropPrivilege(bad, label.L1); err != nil {
			t.Errorf("DropPrivilege(%#x) = %v, want nil", uint64(bad), err)
		}
		if err := p.RaiseRecv(bad, label.L3); err != ErrPrivilege {
			t.Errorf("RaiseRecv(%#x) = %v, want ErrPrivilege", uint64(bad), err)
		}
	}
	if p.SendLabel() != send || p.RecvLabel() != recv {
		t.Error("labels changed")
	}
	// The kernel still answers: p.mu was released.
	if err := p.DropPrivilege(p.NewHandle(), label.L1); err != nil {
		t.Fatal(err)
	}
}
