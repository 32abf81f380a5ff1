package kernel

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"asbestos/internal/handle"
	"asbestos/internal/label"
)

func newSys() *System { return NewSystem(WithSeed(1)) }

// sendRecv drives one message synchronously: q must already have the port.
func sendRecv(t *testing.T, p *Process, q *Process, port handle.Handle, data string, opts *SendOpts) *Delivery {
	t.Helper()
	if err := p.Port(port).Send([]byte(data), opts); err != nil {
		t.Fatalf("send: %v", err)
	}
	d, err := q.TryRecv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return d
}

func TestBasicSendRecv(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	if err := q.SetPortLabel(port, label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	d := sendRecv(t, p, q, port, "hello", nil)
	if d == nil {
		t.Fatal("default labels should deliver: {1} ⊑ {2}")
	}
	if string(d.Data) != "hello" || d.Port != port {
		t.Fatalf("delivery = %+v", d)
	}
	// Default verify label {3} is passed up.
	if d.V == nil || !d.V.Eq(label.Empty(label.L3)) {
		t.Fatalf("V = %v", d.V)
	}
}

func TestSendCopiesData(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	buf := []byte("aaaa")
	p.Port(port).Send(buf, nil)
	buf[0] = 'Z' // mutate after send; receiver must see the original
	d, _ := q.TryRecv()
	if string(d.Data) != "aaaa" {
		t.Fatalf("payload aliased: %q", d.Data)
	}
}

func TestPortInitiallyPrivate(t *testing.T) {
	// Figure 4: new_port sets pR(p) ← 0, so no other process can send to p
	// until the creator grants access.
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	if err := p.Port(port).Send([]byte("x"), nil); err != nil {
		t.Fatalf("send must not error (unreliable): %v", err)
	}
	if d, _ := q.TryRecv(); d != nil {
		t.Fatal("message to private port must be dropped")
	}
	if s.Drops() == 0 {
		t.Fatal("drop not counted")
	}
	// The creator itself can send to its own port: PS(port) = ⋆ ≤ 0.
	if err := q.Port(port).Send([]byte("self"), nil); err != nil {
		t.Fatal(err)
	}
	if d, _ := q.TryRecv(); d == nil || string(d.Data) != "self" {
		t.Fatal("creator must be able to send to own port")
	}
}

func TestSetPortLabelOpens(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	// set_port_label does not modify its input: resetting to {3} with no
	// exception for the port itself opens it to everyone (§5.5).
	if err := q.SetPortLabel(port, label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	if d := sendRecv(t, p, q, port, "open", nil); d == nil {
		t.Fatal("opened port should deliver")
	}
	// Non-owners may not set the label.
	if err := p.SetPortLabel(port, label.Empty(label.L3)); err != ErrNotOwner {
		t.Fatalf("SetPortLabel by non-owner = %v, want ErrNotOwner", err)
	}
}

func TestContamination(t *testing.T) {
	// Equations 3–4: the effective label ES = PS ⊔ CS contaminates the
	// receiver's send label.
	s := newSys()
	fs, sh := s.NewProcess("fs"), s.NewProcess("shell")
	uT := fs.NewHandle()
	port := sh.Open(nil).Handle()
	sh.SetPortLabel(port, label.Empty(label.L3))
	// Shell must be able to accept uT taint: raise its receive label.
	// fs has uT ⋆ so it can decontaminate-receive... here just build the
	// shell with the right receive label via fs's grant.
	grantPort := sh.Open(nil).Handle()
	sh.SetPortLabel(grantPort, label.Empty(label.L3))
	if err := fs.Port(grantPort).Send(nil, &SendOpts{DecontRecv: AllowRecv(label.L3, uT)}); err != nil {
		t.Fatal(err)
	}
	if d, _ := sh.TryRecv(); d == nil {
		t.Fatal("grant message dropped")
	}
	if got := sh.RecvLabel().Get(uT); got != label.L3 {
		t.Fatalf("shell receive label for uT = %v, want 3", got)
	}

	// Now fs sends file data contaminated with uT 3.
	if err := fs.Port(port).Send([]byte("secret file"), &SendOpts{Contaminate: Taint(label.L3, uT)}); err != nil {
		t.Fatal(err)
	}
	d, _ := sh.TryRecv()
	if d == nil {
		t.Fatal("contaminated message should deliver to cleared shell")
	}
	if got := sh.SendLabel().Get(uT); got != label.L3 {
		t.Fatalf("shell send label for uT = %v, want 3 (contaminated)", got)
	}
	// fs's own send label must NOT have risen: contamination is per-message.
	if got := fs.SendLabel().Get(uT); got != label.Star {
		t.Fatalf("fs send label for uT = %v, want ⋆", got)
	}
}

func TestTaintBlocksFurtherSends(t *testing.T) {
	s := newSys()
	fs, sh, other := s.NewProcess("fs"), s.NewProcess("shell"), s.NewProcess("other")
	uT := fs.NewHandle()
	shPort := sh.Open(nil).Handle()
	sh.SetPortLabel(shPort, label.Empty(label.L3))
	otherPort := other.Open(nil).Handle()
	other.SetPortLabel(otherPort, label.Empty(label.L3))

	// Taint the shell (receive label raised via DR, send label via CS in
	// one message — the common idiom of §5.5).
	if err := fs.Port(shPort).Send([]byte("data"), &SendOpts{
		Contaminate: Taint(label.L3, uT),
		DecontRecv:  AllowRecv(label.L3, uT),
	}); err != nil {
		t.Fatal(err)
	}
	if d, _ := sh.TryRecv(); d == nil {
		t.Fatal("taint+grant message dropped")
	}

	// The tainted shell can no longer send to an ordinary process:
	// ES(uT)=3 > otherR(uT)=2.
	sh.Port(otherPort).Send([]byte("leak"), nil)
	if d, _ := other.TryRecv(); d != nil {
		t.Fatal("tainted process leaked to untainted receiver")
	}
}

func TestStarPreservedOnReceive(t *testing.T) {
	// Equation 5: a receiver with ⋆ for h cannot be contaminated w.r.t. h.
	s := newSys()
	fs, att := s.NewProcess("fs"), s.NewProcess("attacker")
	uT := fs.NewHandle()
	fsPort := fs.Open(nil).Handle()
	fs.SetPortLabel(fsPort, label.Empty(label.L3))
	// fs raises its own receive label so tainted messages reach it.
	if err := fs.RaiseRecv(uT, label.L3); err != nil {
		t.Fatal(err)
	}
	// Attacker got tainted somehow: self-contamination.
	att.ContaminateSelf(Taint(label.L3, uT))
	if err := att.Port(fsPort).Send([]byte("taint attempt"), nil); err != nil {
		t.Fatal(err)
	}
	if d, _ := fs.TryRecv(); d == nil {
		t.Fatal("fs should receive: its receive label allows uT 3")
	}
	if got := fs.SendLabel().Get(uT); got != label.Star {
		t.Fatalf("fs lost ⋆ for its own compartment: %v", got)
	}
}

func TestDecontSendRequiresPrivilege(t *testing.T) {
	// Figure 4 requirement 2: DS(h) < 3 requires PS(h) = ⋆.
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	hX := q.NewHandle() // q owns the compartment, p does not
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	err := p.Port(port).Send(nil, &SendOpts{DecontSend: Grant(hX)})
	if err != ErrPrivilege {
		t.Fatalf("unprivileged grant = %v, want ErrPrivilege", err)
	}
}

func TestDecontRecvRequiresPrivilege(t *testing.T) {
	// Figure 4 requirement 3: DR(h) > ⋆ requires PS(h) = ⋆.
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	hX := q.NewHandle()
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	err := p.Port(port).Send(nil, &SendOpts{DecontRecv: AllowRecv(label.L3, hX)})
	if err != ErrPrivilege {
		t.Fatalf("unprivileged DR = %v, want ErrPrivilege", err)
	}
}

func TestGrantTransfersPrivilege(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	hX := p.NewHandle()
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	if err := p.Port(port).Send(nil, &SendOpts{DecontSend: Grant(hX)}); err != nil {
		t.Fatal(err)
	}
	if d, _ := q.TryRecv(); d == nil {
		t.Fatal("grant dropped")
	}
	if got := q.SendLabel().Get(hX); got != label.Star {
		t.Fatalf("q's level for hX = %v, want ⋆", got)
	}
	// q can now redistribute the privilege (capability-like, §5.3).
	r := s.NewProcess("r")
	rPort := r.Open(nil).Handle()
	r.SetPortLabel(rPort, label.Empty(label.L3))
	if err := q.Port(rPort).Send(nil, &SendOpts{DecontSend: Grant(hX)}); err != nil {
		t.Fatalf("redistribution failed: %v", err)
	}
	if d, _ := r.TryRecv(); d == nil {
		t.Fatal("redistribution dropped")
	}
	if r.SendLabel().Get(hX) != label.Star {
		t.Fatal("privilege did not propagate")
	}
}

func TestVerificationLabelBoundsSender(t *testing.T) {
	// Equation 8: ES ⊑ ... ⊓ V, so V must be an upper bound on the
	// sender's send label; receivers use it to check credentials.
	s := newSys()
	writer, fs := s.NewProcess("writer"), s.NewProcess("fs")
	uG := fs.NewHandle()
	port := fs.Open(nil).Handle()
	fs.SetPortLabel(port, label.Empty(label.L3))

	// Unprivileged sender claims uG 0: its own ES(uG)=1 > V(uG)=0 fails
	// check 1 and the message is dropped — no forged credentials.
	writer.Port(port).Send([]byte("forge"), &SendOpts{Verify: VerifyLabel(label.L0, uG)})
	if d, _ := fs.TryRecv(); d != nil {
		t.Fatal("forged verification label delivered")
	}

	// Grant the writer uG 0 (speaks-for, §5.4). fs has uG ⋆ so it can grant.
	wPort := writer.Open(nil).Handle()
	writer.SetPortLabel(wPort, label.Empty(label.L3))
	ds := label.New(label.L3, label.Entry{H: uG, L: label.L0})
	if err := fs.Port(wPort).Send(nil, &SendOpts{DecontSend: ds}); err != nil {
		t.Fatal(err)
	}
	if d, _ := writer.TryRecv(); d == nil {
		t.Fatal("speaks-for grant dropped")
	}
	if writer.SendLabel().Get(uG) != label.L0 {
		t.Fatalf("writer uG = %v, want 0", writer.SendLabel().Get(uG))
	}

	// Now the verified write goes through and fs sees V.
	v := VerifyLabel(label.L0, uG)
	if err := writer.Port(port).Send([]byte("write u file"), &SendOpts{Verify: v}); err != nil {
		t.Fatal(err)
	}
	d, _ := fs.TryRecv()
	if d == nil {
		t.Fatal("verified write dropped")
	}
	if d.V.Get(uG) != label.L0 {
		t.Fatalf("receiver sees V(uG) = %v, want 0", d.V.Get(uG))
	}
}

func TestConfusedDeputyRequiresExplicitCredentials(t *testing.T) {
	// §5.4: V names exactly the credentials exercised. A process speaking
	// for two users must name which one; the default V={3} proves nothing.
	s := newSys()
	multi, fs := s.NewProcess("multi"), s.NewProcess("fs")
	uG, vG := fs.NewHandle(), fs.NewHandle()
	_ = vG
	port := fs.Open(nil).Handle()
	fs.SetPortLabel(port, label.Empty(label.L3))
	mPort := multi.Open(nil).Handle()
	multi.SetPortLabel(mPort, label.Empty(label.L3))
	fs.Port(mPort).Send(nil, &SendOpts{DecontSend: label.New(label.L3,
		label.Entry{H: uG, L: label.L0}, label.Entry{H: vG, L: label.L0})})
	if d, _ := multi.TryRecv(); d == nil {
		t.Fatal("grant dropped")
	}
	// Sending without V: the receiver learns nothing about credentials.
	multi.Port(port).Send([]byte("w"), nil)
	d, _ := fs.TryRecv()
	if d == nil {
		t.Fatal("dropped")
	}
	if d.V.Get(uG) <= label.L0 || d.V.Get(vG) <= label.L0 {
		t.Fatal("default V must not expose credentials implicitly")
	}
}

func TestMandatoryIntegrityLevelZeroLost(t *testing.T) {
	// §5.4: a process at uG 0 loses speaks-for the moment it receives from
	// a process that does not speak for u.
	s := newSys()
	fs, p, q := s.NewProcess("fs"), s.NewProcess("p"), s.NewProcess("q")
	uG := fs.NewHandle()
	pPort := p.Open(nil).Handle()
	p.SetPortLabel(pPort, label.Empty(label.L3))
	fs.Port(pPort).Send(nil, &SendOpts{DecontSend: label.New(label.L3, label.Entry{H: uG, L: label.L0})})
	if d, _ := p.TryRecv(); d == nil {
		t.Fatal("grant dropped")
	}
	if p.SendLabel().Get(uG) != label.L0 {
		t.Fatal("p should speak for u")
	}
	// q (default labels) sends to p: p's send label rises to the default 1.
	q.Port(pPort).Send([]byte("low integrity"), nil)
	if d, _ := p.TryRecv(); d == nil {
		t.Fatal("plain message dropped")
	}
	if got := p.SendLabel().Get(uG); got != label.L1 {
		t.Fatalf("p's uG after low-integrity input = %v, want 1 (privilege lost)", got)
	}
}

func TestPortLabelBlocksContamination(t *testing.T) {
	// §5.5 mail-reader example: a port label below the taint level rejects
	// messages from contaminated senders, and the kernel enforces
	// DR ⊑ pR so senders cannot force decontamination past it.
	s := newSys()
	mail, attach := s.NewProcess("mail"), s.NewProcess("attachment")
	tnt := s.NewProcess("tainter")
	hT := tnt.NewHandle()

	// Mail reader's port refuses any taint: port label {2}.
	port := mail.Open(label.Empty(label.L2)).Handle()
	mail.SetPortLabel(port, label.Empty(label.L2))

	// Untainted attachment can send.
	attach.Port(port).Send([]byte("ok"), nil)
	if d, _ := mail.TryRecv(); d == nil {
		t.Fatal("untainted attachment should reach mail reader")
	}

	// Attachment becomes tainted.
	attach.ContaminateSelf(Taint(label.L3, hT))
	attach.Port(port).Send([]byte("bad"), nil)
	if d, _ := mail.TryRecv(); d != nil {
		t.Fatal("tainted attachment must be blocked by port label")
	}

	// Even the compartment owner cannot decontaminate past the port label:
	// requirement 4, DR ⊑ pR.
	tnt.Port(port).Send([]byte("force"), &SendOpts{DecontRecv: AllowRecv(label.L3, hT)})
	if d, _ := mail.TryRecv(); d != nil {
		t.Fatal("DR beyond port label must be rejected")
	}
}

func TestCapabilityStylePortRights(t *testing.T) {
	// §5.5: port creation + DS grants = send capabilities.
	s := newSys()
	owner, friend, stranger := s.NewProcess("owner"), s.NewProcess("friend"), s.NewProcess("stranger")
	port := owner.Open(nil).Handle()

	// Stranger cannot send (pR(p)=0 vs ES(p)=1).
	stranger.Port(port).Send([]byte("no"), nil)
	if d, _ := owner.TryRecv(); d != nil {
		t.Fatal("stranger sent without capability")
	}

	// Owner grants the capability to friend: DS = {p ⋆, 3}.
	fPort := friend.Open(nil).Handle()
	friend.SetPortLabel(fPort, label.Empty(label.L3))
	if err := owner.Port(fPort).Send(nil, &SendOpts{DecontSend: Grant(port)}); err != nil {
		t.Fatal(err)
	}
	if d, _ := friend.TryRecv(); d == nil {
		t.Fatal("capability grant dropped")
	}
	friend.Port(port).Send([]byte("yes"), nil)
	if d, _ := owner.TryRecv(); d == nil || string(d.Data) != "yes" {
		t.Fatal("capability holder could not send")
	}
}

func TestDeliveryTimeChecks(t *testing.T) {
	// §4: deliverability is decided when the receiver receives, not when
	// the sender sends. A label change in between flips the outcome.
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	hT := p.NewHandle()
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))

	// Tainted message while q cannot accept: queued, then q's receive
	// label rises before it receives — message delivers.
	p.Port(port).Send([]byte("early"), &SendOpts{
		Contaminate: Taint(label.L3, hT),
		DecontRecv:  AllowRecv(label.L3, hT),
	})
	// (DR raises q's receive label as part of the same delivery; this is
	// the paper's idiom and must succeed.)
	if d, _ := q.TryRecv(); d == nil {
		t.Fatal("taint+DR delivery failed")
	}

	// Now the reverse: queue a clean message, then lower q's receive label
	// below the sender's level before receiving.
	p2, q2 := s.NewProcess("p2"), s.NewProcess("q2")
	hS := p2.NewHandle()
	port2 := q2.Open(nil).Handle()
	q2.SetPortLabel(port2, label.Empty(label.L3))
	p2.Port(port2).Send([]byte("pending"), &SendOpts{Contaminate: Taint(label.L2, hS)})
	q2.LowerRecv(label.New(label.L3, label.Entry{H: hS, L: label.L1}))
	if d, _ := q2.TryRecv(); d != nil {
		t.Fatal("message should be dropped at delivery time after receive label lowered")
	}
}

func TestSendToDeadOrMissingPort(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	q.Exit()
	if err := p.Port(port).Send([]byte("x"), nil); err != nil {
		t.Fatalf("send to dead process must succeed silently: %v", err)
	}
	if err := p.Port(handle.Handle(12345)).Send([]byte("x"), nil); err != nil {
		t.Fatalf("send to nonexistent port must succeed silently: %v", err)
	}
	if _, err := q.TryRecv(); err != ErrDead {
		t.Fatalf("recv on dead process = %v, want ErrDead", err)
	}
}

func TestDissociate(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	p.Port(port).Send([]byte("1"), nil)
	if err := q.Dissociate(port); err != nil {
		t.Fatal(err)
	}
	if d, _ := q.TryRecv(); d != nil {
		t.Fatal("message to dissociated port delivered")
	}
	if err := q.Dissociate(port); err != ErrNotOwner {
		t.Fatalf("double dissociate = %v", err)
	}
}

func TestQueueLimit(t *testing.T) {
	s := NewSystem(WithSeed(1), WithQueueLimit(2))
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	for i := 0; i < 5; i++ {
		if err := p.Port(port).Send([]byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if q.QueueLen() != 2 {
		t.Fatalf("queue length = %d, want 2", q.QueueLen())
	}
	if s.Drops() != 3 {
		t.Fatalf("drops = %d, want 3", s.Drops())
	}
}

func TestSelfLabelOps(t *testing.T) {
	s := newSys()
	p := s.NewProcess("p")
	h1 := p.NewHandle()
	h2 := s.NewProcess("q").NewHandle()

	// ContaminateSelf preserves own stars.
	p.ContaminateSelf(Taint(label.L3, h1, h2))
	if p.SendLabel().Get(h1) != label.Star {
		t.Fatal("self-contamination must not clobber own ⋆")
	}
	if p.SendLabel().Get(h2) != label.L3 {
		t.Fatal("self-contamination failed for foreign handle")
	}

	// DropPrivilege removes ⋆ explicitly.
	if err := p.DropPrivilege(h1, label.L1); err != nil {
		t.Fatal(err)
	}
	if p.SendLabel().Get(h1) != label.L1 {
		t.Fatal("DropPrivilege failed")
	}
	if err := p.DropPrivilege(h1, label.Star); err != ErrBadLabel {
		t.Fatal("DropPrivilege to ⋆ must be rejected")
	}

	// RaiseRecv without privilege fails; LowerRecv is free.
	if err := p.RaiseRecv(h2, label.L3); err != ErrPrivilege {
		t.Fatalf("RaiseRecv without ⋆ = %v", err)
	}
	p.LowerRecv(label.New(label.L3, label.Entry{H: h2, L: label.L1}))
	if p.RecvLabel().Get(h2) != label.L1 {
		t.Fatal("LowerRecv failed")
	}
	// Raising back requires privilege even to the old value.
	if err := p.RaiseRecv(h2, label.L2); err != ErrPrivilege {
		t.Fatalf("RaiseRecv = %v", err)
	}
}

func TestForkInheritsLabelsAndMemory(t *testing.T) {
	s := newSys()
	p := s.NewProcess("parent")
	h1 := p.NewHandle()
	p.Memory().WriteAt(100, []byte("inherited"))
	c := p.Fork("child")
	if c.SendLabel().Get(h1) != label.Star {
		t.Fatal("fork must inherit ⋆ privileges")
	}
	buf := make([]byte, 9)
	c.Memory().ReadAt(100, buf)
	if string(buf) != "inherited" {
		t.Fatalf("child memory = %q", buf)
	}
	// Copies are independent.
	c.Memory().WriteAt(100, []byte("CHANGED!!"))
	p.Memory().ReadAt(100, buf)
	if string(buf) != "inherited" {
		t.Fatal("fork shares memory with parent")
	}
}

func TestRecvFilter(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	a, b := q.Open(nil).Handle(), q.Open(nil).Handle()
	q.SetPortLabel(a, label.Empty(label.L3))
	q.SetPortLabel(b, label.Empty(label.L3))
	p.Port(a).Send([]byte("A"), nil)
	p.Port(b).Send([]byte("B"), nil)
	d, _ := q.TryRecv(b)
	if d == nil || string(d.Data) != "B" {
		t.Fatalf("filtered recv = %v", d)
	}
	d, _ = q.TryRecv()
	if d == nil || string(d.Data) != "A" {
		t.Fatalf("remaining message = %v", d)
	}
}

func TestBlockingRecv(t *testing.T) {
	s := newSys()
	p, q := s.NewProcess("p"), s.NewProcess("q")
	port := q.Open(nil).Handle()
	q.SetPortLabel(port, label.Empty(label.L3))
	done := make(chan *Delivery, 1)
	go func() {
		d, _ := q.RecvCtx(context.Background())
		done <- d
	}()
	p.Port(port).Send([]byte("wake"), nil)
	d := <-done
	if d == nil || string(d.Data) != "wake" {
		t.Fatalf("blocking recv = %v", d)
	}
}

func TestEnvBootstrap(t *testing.T) {
	s := newSys()
	q := s.NewProcess("q")
	port := q.Open(nil).Handle()
	s.SetEnv("service", port)
	h, ok := s.Env("service")
	if !ok || h != port {
		t.Fatal("env lookup failed")
	}
	if _, ok := s.Env("missing"); ok {
		t.Fatal("missing env should not resolve")
	}
}

func TestNewHandleGrantsStar(t *testing.T) {
	s := newSys()
	p := s.NewProcess("p")
	h := p.NewHandle()
	if p.SendLabel().Get(h) != label.Star {
		t.Fatal("creator must get ⋆")
	}
	q := s.NewProcess("q")
	if q.SendLabel().Get(h) != label.L1 {
		t.Fatal("other processes must be at the default level")
	}
}

// TestOneEntryLabelsNotRetained: the one-handle labels the send helpers
// build are plain values. Nothing in the kernel or the label package keeps
// them once the caller drops them, so a handle the system has stopped using
// leaves no label behind.
func TestOneEntryLabelsNotRetained(t *testing.T) {
	h := newSys().NewProcess("p").NewHandle()
	var ptrs []weak.Pointer[label.Label]
	for _, l := range []*label.Label{
		Grant(h),
		Taint(label.L3, h),
		AllowRecv(label.L3, h),
		VerifyLabel(label.L0, h),
	} {
		if l.Len() != 1 {
			t.Fatalf("%v: want one entry", l)
		}
		ptrs = append(ptrs, weak.Make(l))
	}
	runtime.GC()
	runtime.GC()
	for i, name := range []string{"Grant", "Taint", "AllowRecv", "VerifyLabel"} {
		if ptrs[i].Value() != nil {
			t.Errorf("%s's label is still reachable after its caller dropped it", name)
		}
	}
}
