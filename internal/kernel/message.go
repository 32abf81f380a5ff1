package kernel

import (
	"context"

	"asbestos/internal/handle"
	"asbestos/internal/label"
	"asbestos/internal/stats"
)

// Message is one queued IPC message with its label arguments (paper
// Figure 4). The labels are captured at send time; the checks that depend
// on the receiver run at delivery time.
type Message struct {
	Port handle.Handle
	Data []byte

	es *label.Label // effective send label E_S = P_S ⊔ C_S
	ds *label.Label // decontaminate-send D_S
	dr *label.Label // decontaminate-receive D_R
	v  *label.Label // verification V (passed up to the receiver)

	// next is the intrusive MPSC queue link (see mpsc.go). It is written by
	// the producing sender before the publishing CAS and by the consumer
	// while reversing a drained chain; the queue's atomics order the two.
	next *Message
}

// SendOpts carries the four optional labels of the send system call
// (paper §5). Nil fields take the paper's defaults:
//
//	Contaminate  C_S  {⋆}  — adds no contamination
//	DecontSend   D_S  {3}  — lowers nothing
//	DecontRecv   D_R  {⋆}  — raises nothing
//	Verify       V    {3}  — proves nothing, restricts nothing
type SendOpts struct {
	Contaminate *label.Label
	DecontSend  *label.Label
	DecontRecv  *label.Label
	Verify      *label.Label
}

func (o *SendOpts) defaults() (cs, ds, dr, v *label.Label) {
	cs = label.Empty(label.Star)
	ds = label.Empty(label.L3)
	dr = label.Empty(label.Star)
	v = label.Empty(label.L3)
	if o == nil {
		return
	}
	if o.Contaminate != nil {
		cs = o.Contaminate
	}
	if o.DecontSend != nil {
		ds = o.DecontSend
	}
	if o.DecontRecv != nil {
		dr = o.DecontRecv
	}
	if o.Verify != nil {
		v = o.Verify
	}
	return
}

// Delivery is what a receiver observes: the port, the payload, and the
// sender's verification label (the only optional label passed up, §5.4).
//
// The payload has a release lifecycle: the kernel hands the receiver a
// pooled buffer it owns until Release returns it for reuse by a future
// send. The rule is normative: every received Delivery must reach Release
// or Detach on every control-flow path (enforced by asbestosvet's
// releasecheck analyzer). A dropped Delivery is garbage-collected like any
// other slice, so a miss costs allocation pressure rather than
// correctness — but the hand-audits that rule replaced kept finding real
// leaks on error paths, so it is mechanical now. The trusted event loops
// (internal/evloop) release every delivery after its handler returns,
// which is what closes the last per-send allocation on the hot path. A
// receiver that retains the payload bytes past Release must copy them
// first, or take ownership with Detach.
type Delivery struct {
	Port handle.Handle
	Data []byte
	V    *label.Label

	// pooled marks the payload as kernel-owned (eligible for Release);
	// released arms the use-after-release detector.
	pooled   bool
	released bool
}

// newDelivery moves a consumed message's payload into a Delivery and
// recycles the node.
func newDelivery(m *Message) *Delivery {
	d := &Delivery{Port: m.Port, Data: m.Data, V: m.v, pooled: true}
	releaseMsg(m)
	return d
}

// Release returns the payload buffer to the kernel's pool. The receiver
// must not touch Data afterwards (it is nilled so a stale parse fails
// loudly rather than reading bytes a concurrent send may be overwriting);
// releasing twice panics — both are use-after-release bugs, not races the
// kernel tolerates. Release on a detached or caller-built delivery is a
// no-op.
func (d *Delivery) Release() {
	if d == nil || !d.pooled {
		return
	}
	if d.released {
		panic("kernel: Delivery.Release called twice")
	}
	d.released = true
	putPayload(d.Data)
	d.Data = nil
}

// Detach transfers payload ownership to the caller: the returned bytes are
// exempt from the pool forever and any later Release is a no-op. Handlers
// running under an event loop that releases deliveries use it to retain a
// payload without copying.
func (d *Delivery) Detach() []byte {
	if d == nil {
		return nil
	}
	if d.released {
		panic("kernel: Delivery.Detach after Release")
	}
	b := d.Data
	d.pooled = false
	return b
}

// Grant builds a decontaminate-send label granting ⋆ for the given handles:
// {h₁ ⋆, …, 3}. Sending with DecontSend: Grant(h) hands the receiver
// declassification privilege for h — the capability-grant idiom of §5.5.
func Grant(hs ...handle.Handle) *label.Label {
	return uniform(label.L3, label.Star, hs)
}

// Taint builds a contamination label {h₁ lvl, …, ⋆}: ⊔-ing it into a send
// label raises exactly the named handles.
func Taint(lvl label.Level, hs ...handle.Handle) *label.Label {
	return uniform(label.Star, lvl, hs)
}

// AllowRecv builds a decontaminate-receive label {h₁ lvl, …, ⋆} used to
// raise a receiver's receive label for the named handles.
func AllowRecv(lvl label.Level, hs ...handle.Handle) *label.Label {
	return uniform(label.Star, lvl, hs)
}

// VerifyLabel builds a verification label {h₁ lvl, …, 3} proving the sender
// holds the named handles at or below lvl.
func VerifyLabel(lvl label.Level, hs ...handle.Handle) *label.Label {
	return uniform(label.L3, lvl, hs)
}

// uniform builds {h₁ lvl, …, def}. The entries of a few handles are
// collected on the stack, so that the label is the only allocation.
func uniform(def, lvl label.Level, hs []handle.Handle) *label.Label {
	var buf [4]label.Entry
	entries := buf[:0]
	for _, h := range hs {
		entries = append(entries, label.Entry{H: h, L: lvl})
	}
	return label.New(def, entries...)
}

// sendSnapshot returns the calling context's current send label. Labels are
// immutable values, so the snapshot stays valid after the lock is dropped —
// exactly the atomicity Figure 4 requires of the sender-side checks.
func (p *Process) sendSnapshot() (*label.Label, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return nil, ErrDead
	}
	sendL, _ := p.ctxLabels()
	return *sendL, nil
}

func minLevel(a, b label.Level) label.Level {
	if a < b {
		return a
	}
	return b
}

func maxLevel(a, b label.Level) label.Level {
	if a > b {
		return a
	}
	return b
}

// deliverable evaluates requirements 1 and 4 of Figure 4 against a
// receiving context's labels and the port's current label (both snapshotted
// by the caller at the instant of receive). Pure label math over immutable
// labels; needs no locks.
func deliverable(m *Message, recvL, pr *label.Label) bool {
	if pr == nil {
		return false
	}
	// (4) DR ⊑ pR: the port label bounds decontamination, protecting
	// long-running servers from unwanted taint-acceptance (§5.5).
	if !m.dr.Leq(pr) {
		return false
	}
	// (1) ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR. The common case has huge recvL (one
	// clearance entry per user) but tiny DR/V/pR; materializing the bound
	// would allocate three recvL-sized labels per message. When the ES
	// default is safely below the bound's floor, it suffices to check the
	// explicit entries of ES, DR, V and pR pointwise.
	floor := minLevel(
		maxLevel(recvL.Min(), m.dr.Default()),
		minLevel(m.v.Default(), pr.Default()))
	if m.es.Default() <= floor {
		rhs := func(h handle.Handle) label.Level {
			return minLevel(
				maxLevel(recvL.Get(h), m.dr.Get(h)),
				minLevel(m.v.Get(h), pr.Get(h)))
		}
		ok := true
		// Walk ES's entries above ⋆ only: privileged (⋆) entries — the bulk
		// of a trusted server's label — pass trivially, and chunks holding
		// nothing else are skipped whole.
		m.es.EachAboveStar(func(h handle.Handle, e label.Level) bool {
			if e > rhs(h) {
				ok = false
				return false
			}
			return true
		})
		check := func(h handle.Handle, _ label.Level) bool {
			if e := m.es.Get(h); e != label.Star && e > rhs(h) {
				ok = false
				return false
			}
			return true
		}
		if ok {
			m.dr.Each(check)
		}
		if ok {
			m.v.Each(check)
		}
		if ok {
			pr.Each(check)
		}
		return ok
	}
	bound := recvL.Lub(m.dr).Glb(m.v).Glb(pr)
	return m.es.Leq(bound)
}

// applyEffects performs the label updates of Figure 4 on a receiving
// context:
//
//	QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS⋆)
//	QR ← QR ⊔ DR
//
// The ES ⊓ QS⋆ term gives the receiver's ⋆ handles precedence over
// incoming contamination (Equation 5); the QS ⊓ DS term applies granted
// decontamination. On a trusted server's label of thousands of entries, each
// update costs the chunks it changes: the label package's rule (d) looks the
// receiver's label up only at the few entries of DS, ES or DR that can change
// it, however the two labels' handles interleave.
func applyEffects(m *Message, sendL, recvL **label.Label) {
	qs := (*sendL).Glb(m.ds)
	*sendL = qs.Contaminate(m.es)
	*recvL = (*recvL).Lub(m.dr)
}

// matchFilter reports whether port is accepted by the filter list (empty
// filter = any port).
func matchFilter(port handle.Handle, filter []handle.Handle) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == port {
			return true
		}
	}
	return false
}

// scan walks the pending list for the first deliverable message and is the
// only kernel path that checks queued messages against the receiver:
// Figure 4's requirements 1 and 4 (deliverable) and its label effects
// (applyEffects). Caller holds p.mu and has drained the inbox; port state
// is snapshotted per message via the vnode shard locks (ordering rule 2),
// and the checks run against the target context's labels at this instant.
// It returns nil if nothing is deliverable right now.
//
// The two modes differ only in which context a message targets. A receive
// (checkpoint false) targets the current context and leaves queued the
// messages of other contexts' ports and of ports the filter excludes. A
// checkpoint targets the event process owning the port, or — for a port
// still owned by the base process — a fresh event process forked from the
// base labels once the message has passed the check against them (§6.1);
// the chosen event process becomes current.
//
// Messages to a port that died while they were queued — dissociated, or
// owned by an event process that exited — are dropped as "dead"; messages
// failing the check are dropped under the receiver's class.
func (p *Process) scan(filter []handle.Handle, checkpoint bool) (*Delivery, *EventProcess) {
	for i := 0; i < len(p.pending); {
		m := p.pending[i]
		// The port's routing snapshot: an atomic load behind the shard
		// lock's map lookup (ordering rule 2). A dead port has no vnode.
		st, ok := p.sys.lookup(m.Port).state()
		if !ok || st.owner != p {
			p.removePending(i)
			p.sys.countDrop(dropClassDead, 1)
			freeMsg(m)
			continue
		}
		if !checkpoint && (st.ownerEP != p.curID() || !matchFilter(m.Port, filter)) {
			// Another context's port, or filtered out: leave it queued.
			i++
			continue
		}
		p.removePending(i)
		ep := p.cur
		if checkpoint {
			// nil for a base-owned port. An event process's ports die
			// before it leaves p.eps, so a live port's owner is here.
			ep = p.eps[st.ownerEP]
		}
		sendL, recvL := &p.sendL, &p.recvL
		if ep != nil {
			sendL, recvL = &ep.sendL, &ep.recvL
		}
		if !deliverable(m, *recvL, st.label) {
			p.sys.countDrop(portClass(p.name), 1)
			freeMsg(m)
			continue
		}
		if checkpoint {
			if ep == nil {
				ep = p.forkEP()
			}
			ep.active = true
			p.cur = ep
			sendL, recvL = &ep.sendL, &ep.recvL
		}
		applyEffects(m, sendL, recvL)
		return newDelivery(m), ep
	}
	return nil, nil
}

// RecvCtx blocks until a message is deliverable to the current context on
// one of the filtered ports (any port if no filter), applies the label
// effects, and returns it — or until ctx is cancelled or its deadline
// passes, in which case it returns ctx's error. A message that is already
// deliverable wins over an already-expired context. In the event-process
// realm, only the active event process's ports are eligible; the base
// process must use Checkpoint.
//
// The ctx must be one that can actually end the wait — thread the caller's
// context or derive one with WithTimeout/WithCancel. Passing a bare
// context.Background()/TODO() wedges the goroutine forever and is rejected
// by asbestosvet's ctxrecv analyzer.
func (p *Process) RecvCtx(ctx context.Context, filter ...handle.Handle) (*Delivery, error) {
	return p.recv(ctx, filter, true)
}

// TryRecv is Recv without blocking: it returns nil if no message is
// currently deliverable.
func (p *Process) TryRecv(filter ...handle.Handle) (*Delivery, error) {
	return p.recv(context.TODO(), filter, false)
}

// recv is the body of RecvCtx and TryRecv. park — whether to wait when
// nothing is deliverable — is all that tells them apart.
func (p *Process) recv(ctx context.Context, filter []handle.Handle, park bool) (*Delivery, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.dead {
			return nil, ErrDead
		}
		if p.inRealm && p.cur == nil {
			return nil, ErrNotInRealm
		}
		stop := p.sys.prof.Time(stats.CatKernelIPC)
		p.drainInbox()
		d, _ := p.scan(filter, false)
		stop()
		if d != nil || !park {
			return d, nil
		}
		// Park. The last drain left the inbox empty (drain always swaps it
		// to nil), so the next push observes the empty→non-empty transition
		// and signals; waitLocked registers before it looks at the inbox
		// once more, so no wakeup can be lost.
		if err := p.waitLocked(ctx); err != nil {
			return nil, err
		}
	}
}

// QueueLen reports the number of queued (not yet delivered) messages;
// diagnostics only. It is exact against a quiescent process; concurrent
// sends may or may not be included.
func (p *Process) QueueLen() int {
	n := p.queued.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}
