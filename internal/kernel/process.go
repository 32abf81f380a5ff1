package kernel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"asbestos/internal/handle"
	"asbestos/internal/label"
	"asbestos/internal/mem"
)

func newSpace() *mem.Space { return mem.NewSpace() }

// Errors returned by syscalls. Only conditions that depend purely on the
// caller's own state are reported; deliverability failures are silent
// (unreliable messaging, paper §4).
var (
	ErrPrivilege  = errors.New("kernel: operation requires ⋆ privilege for a handle")
	ErrNotOwner   = errors.New("kernel: caller lacks receive rights for port")
	ErrDead       = errors.New("kernel: process has exited")
	ErrInRealm    = errors.New("kernel: base process entered the event-process realm")
	ErrNotInRealm = errors.New("kernel: no active event process context")
	ErrBadLabel   = errors.New("kernel: invalid label argument")
)

// Process is an Asbestos process: a pair of labels, a message queue, an
// address space, and (optionally) a family of event processes.
//
// The message queue is split in two. inbox is the lock-free MPSC mailbox
// senders push into (see mpsc.go); pending is the consumer-side holding
// list — messages drained from the inbox but not yet consumed because they
// are filtered out, belong to a dormant event process, or failed no check
// yet. mu guards pending and every other mutable field below it (labels,
// event-process table, liveness) except the waiter set, which has its own
// leaf lock wmu: a sender waking the process must never wait out a receive
// scan — a whole Figure 4 label pass — that holds mu. Blocked receivers park
// on per-call waiter channels rather than a condition variable, so a wait
// can also be ended by a context.Context (Recv deadlines and cancellation,
// and Select across several processes' ports). The address space contents
// are, as in the seed, accessed only by the owning goroutine (plus
// quiescent diagnostics); mu does not cover page data.
type Process struct {
	sys  *System
	id   ProcID
	name string

	mu sync.Mutex

	// waiters is the set of parked receivers (Recv, Checkpoint, Select):
	// one buffered channel per waiter, signalled — never closed — on the
	// inbox's empty→non-empty transition and on Exit. A Select waiting on
	// several processes registers the same channel with each. The set is a
	// small slice — almost always zero or one entry, so registration and
	// the wake fan-out stay a few word writes. Guarded by wmu, a leaf lock
	// taken under mu (park, Exit) or alone (publish, Select). wcache is a
	// one-slot free list of wake channels for the common single-receiver
	// case; it is guarded by mu.
	wmu     sync.Mutex
	waiters []chan struct{}
	wcache  chan struct{}

	// Base-context labels. Once the process enters the event-process realm
	// these are frozen as the template for new event processes.
	sendL *label.Label // P_S: current contamination
	recvL *label.Label // P_R: maximum acceptable contamination

	inbox   msgQueue     // lock-free MPSC mailbox; senders push, owner drains
	pending []*Message   // drained but unconsumed messages; guarded by mu
	queued  atomic.Int64 // inbox + pending size, bounds the queue limit
	dead    bool         // guarded by mu
	// deadFlag mirrors dead for the senders' lock-free fast path. A send
	// that races Exit between the flag check and the push may strand a
	// message in the inbox uncounted — for the sender this is
	// indistinguishable from any other silent drop of §4.
	deadFlag atomic.Bool

	space *mem.Space

	inRealm bool
	ports   map[handle.Handle]bool // live ports the base context owns
	eps     map[uint32]*EventProcess
	cur     *EventProcess
	nextEP  uint32
}

// wakeAll signals every registered receiver. The channels are buffered one
// deep, so a signal to a waiter that is between registering and parking is
// retained rather than lost (see waitLocked).
func (p *Process) wakeAll() {
	p.wmu.Lock()
	for _, w := range p.waiters {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	p.wmu.Unlock()
}

// addWaiter registers a receiver's wake channel.
func (p *Process) addWaiter(w chan struct{}) {
	p.wmu.Lock()
	p.waiters = append(p.waiters, w)
	p.wmu.Unlock()
}

// removeWaiter deregisters a wake channel. Order is not preserved — wakeAll
// signals everyone anyway.
func (p *Process) removeWaiter(w chan struct{}) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	for i, x := range p.waiters {
		if x == w {
			last := len(p.waiters) - 1
			p.waiters[i] = p.waiters[last]
			p.waiters[last] = nil
			p.waiters = p.waiters[:last]
			return
		}
	}
}

// waitLocked parks the caller until a sender publishes into the empty
// inbox, the process exits, or ctx is done — the only case it reports an
// error. Caller holds p.mu and has scanned a drained inbox; the lock is
// released while parked and held again on return.
//
// No wakeup can be lost, though senders signal under wmu alone and so can
// run while the caller still holds p.mu: a sender pushes, then takes wmu and
// signals whoever is registered; the caller registers under wmu, then looks
// at the inbox. Whichever takes wmu second sees the other's step — the
// sender finds the channel (whose buffer keeps the signal until the park),
// or the caller finds the message and rescans instead of parking.
func (p *Process) waitLocked(ctx context.Context) error {
	w := p.wcache
	p.wcache = nil
	if w == nil {
		w = make(chan struct{}, 1)
	}
	p.addWaiter(w)
	var err error
	if p.inbox.empty() {
		p.mu.Unlock()
		if done := ctx.Done(); done == nil {
			// No cancellation possible: a plain channel receive parks much
			// cheaper than a two-case select.
			<-w
		} else {
			select {
			case <-w:
			case <-done:
				err = ctx.Err()
			}
		}
		p.mu.Lock()
	}
	p.removeWaiter(w)
	// Discard any stale signal so a later park cannot wake spuriously.
	select {
	case <-w:
	default:
	}
	p.wcache = w
	return err
}

// ID returns the process identifier.
func (p *Process) ID() ProcID { return p.id }

// allocShard is the handle-allocator shard this process draws from: spread
// by process id so handle creation from distinct processes never contends,
// while staying deterministic for a fixed process-creation order (seeded
// tests).
func (p *Process) allocShard() uint32 { return uint32(p.id) }

// drainInbox moves everything published in the lock-free inbox onto the
// tail of the pending list, preserving global FIFO arrival order. Caller
// holds p.mu, which is what makes it the queue's single consumer.
func (p *Process) drainInbox() {
	for m := p.inbox.drain(); m != nil; {
		next := m.next
		m.next = nil
		p.pending = append(p.pending, m)
		m = next
	}
}

// removePending deletes pending[i], keeping order, and releases its slot in
// the queue-limit accounting. Deleting the head — the overwhelmingly common
// case, since receivers consume in arrival order — is O(1): the slice just
// advances over a nil'd slot, so burst drains of a deep queue stay linear
// instead of quadratic. Caller holds p.mu.
func (p *Process) removePending(i int) {
	if i == 0 {
		p.pending[0] = nil
		p.pending = p.pending[1:]
	} else {
		p.pending = append(p.pending[:i], p.pending[i+1:]...)
	}
	p.queued.Add(-1)
}

// Name returns the diagnostic name.
func (p *Process) Name() string { return p.name }

// System returns the owning kernel.
func (p *Process) System() *System { return p.sys }

// ctxLabels returns pointers to the current context's label slots: the
// active event process if any, else the base process. Caller holds p.mu.
func (p *Process) ctxLabels() (sendL, recvL **label.Label) {
	if p.cur != nil {
		return &p.cur.sendL, &p.cur.recvL
	}
	return &p.sendL, &p.recvL
}

// ctxPorts returns the set of live ports the current context owns — the
// ports Exit or EPExit must kill. Caller holds p.mu.
func (p *Process) ctxPorts() map[handle.Handle]bool {
	if p.cur != nil {
		return p.cur.ports
	}
	return p.ports
}

// SendLabel returns the current context's send label P_S.
func (p *Process) SendLabel() *label.Label {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, _ := p.ctxLabels()
	return *s
}

// RecvLabel returns the current context's receive label P_R.
func (p *Process) RecvLabel() *label.Label {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, r := p.ctxLabels()
	return *r
}

// Memory returns the current context's memory: the base address space, or
// the active event process's copy-on-write view.
func (p *Process) Memory() Memory {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur != nil {
		return p.cur.view
	}
	return p.space
}

// Memory is the read/write interface shared by base address spaces and
// event-process views.
type Memory interface {
	ReadAt(a mem.Addr, buf []byte)
	WriteAt(a mem.Addr, buf []byte)
}

// NewHandle creates a fresh compartment. The calling context receives
// declassification privilege: P_S(h) ← ⋆ (paper §5.3: "A process initially
// has privilege for every handle it creates").
func (p *Process) NewHandle() handle.Handle {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.sys.alloc.NewIn(p.allocShard())
	p.sys.install(&vnode{h: h})
	s, _ := p.ctxLabels()
	*s = (*s).With(h, label.Star)
	return h
}

// Open creates a port with the given initial port label and returns the
// process's endpoint to it. As in Figure 4, the kernel then sets
// pR(p) ← 0, so no other process can send to the port until the creator
// grants access, and gives the creating context P_S(p) = ⋆ and receive
// rights. A nil initial label means {3} (no restriction beyond the process
// receive label).
//
// The returned Port carries the port's vnode, so sends and receive-side
// scans through it skip the handle-table lookup entirely.
func (p *Process) Open(initial *label.Label) *Port {
	vn := p.openPort(initial)
	pt := &Port{p: p, h: vn.h}
	pt.vn.Store(vn)
	return pt
}

// openPort creates the port and returns its vnode; Open wraps it in an
// endpoint.
func (p *Process) openPort(initial *label.Label) *vnode {
	if initial == nil {
		initial = label.Empty(label.L3)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Build the vnode fully before publishing it, so no one can observe a
	// half-initialized port.
	vn := &vnode{h: p.sys.alloc.NewIn(p.allocShard()), isPort: true}
	st := portState{owner: p, ownerEP: p.curID()}
	if initial.Len() == 0 {
		st.label = label.New(initial.Default(), label.Entry{H: vn.h, L: label.L0})
	} else {
		st.label = initial.With(vn.h, label.L0)
	}
	p.ctxPorts()[vn.h] = true
	vn.st.Store(&st)
	p.sys.install(vn)
	s, _ := p.ctxLabels()
	*s = (*s).With(vn.h, label.Star)
	return vn
}

// withOwnedPort runs f on the vnode and routing state of a live port the
// current context owns, under p.mu — the lock every write of a live port's
// state holds, so st stays current until f returns. It reports ErrNotOwner
// when the handle is not a live port owned by this context.
func (p *Process) withOwnedPort(port handle.Handle, f func(vn *vnode, st *portState)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	vn := p.sys.lookup(port)
	st, ok := vn.state()
	if !ok || st.owner != p || st.ownerEP != p.curID() {
		return ErrNotOwner
	}
	f(vn, st)
	return nil
}

// SetPortLabel replaces a port's label. Only the context holding receive
// rights may do so; no label privilege is required (port labels are purely
// discretionary, §5.5). Unlike Open, it does not modify its input, so a
// process can deliberately open a port to everyone by setting {3}.
func (p *Process) SetPortLabel(port handle.Handle, l *label.Label) error {
	if l == nil {
		return ErrBadLabel
	}
	return p.withOwnedPort(port, func(vn *vnode, st *portState) {
		vn.st.Store(&portState{owner: p, ownerEP: st.ownerEP, label: l})
	})
}

// PortLabel returns a port's current label; only the owner may inspect it.
func (p *Process) PortLabel(port handle.Handle) (*label.Label, error) {
	var out *label.Label
	err := p.withOwnedPort(port, func(_ *vnode, st *portState) {
		out = st.label
	})
	return out, err
}

// Dissociate abandons receive rights for a port, which dies: pending and
// future messages to it are dropped.
func (p *Process) Dissociate(port handle.Handle) error {
	return p.withOwnedPort(port, func(*vnode, *portState) {
		delete(p.ctxPorts(), port)
		p.sys.killPort(port)
	})
}

func (p *Process) curID() uint32 {
	if p.cur != nil {
		return p.cur.id
	}
	return 0
}

// ContaminateSelf voluntarily raises the context's send label: P_S ← P_S ⊔
// (l ⊓ P_S⋆). Contamination requires no privilege, and the ⋆ projection
// keeps the context's own declassification privileges intact; use
// DropPrivilege to give those up.
func (p *Process) ContaminateSelf(l *label.Label) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, _ := p.ctxLabels()
	*s = (*s).Lub(l.Glb((*s).StarRestrict()))
}

// DropPrivilege removes ⋆ for h from the context's send label, setting it
// to lvl (which must be above ⋆). This is the paper's "special variant of
// the send system call" by which only a process itself can shed ⋆ (§5.3).
//
// Pairing is normative: every transient Grant must reach DropPrivilege (or
// Batcher.DropAfter) on every path after the send, and deliberately
// long-lived ⋆ must carry an //asbestos:keepstar <lifetime> <reason> waiver
// — both enforced by asbestosvet's privdrop analyzer.
func (p *Process) DropPrivilege(h handle.Handle, lvl label.Level) error {
	if lvl == label.Star || !lvl.Valid() {
		return ErrBadLabel
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s, _ := p.ctxLabels()
	if (*s).Get(h) != label.Star {
		return nil // nothing to drop
	}
	*s = (*s).With(h, lvl)
	return nil
}

// LowerRecv voluntarily restricts the context's receive label: P_R ← P_R ⊓
// l. Restricting what one may receive needs no privilege.
func (p *Process) LowerRecv(l *label.Label) {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, r := p.ctxLabels()
	*r = (*r).Glb(l)
}

// RaiseRecv raises the context's receive level for handle h to lvl. Raising
// a receive label makes the system more permissive and therefore requires
// declassification privilege for h (paper §5.2: "processes are not free to
// raise their receive labels arbitrarily").
func (p *Process) RaiseRecv(h handle.Handle, lvl label.Level) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, r := p.ctxLabels()
	if (*r).Get(h) >= lvl {
		return nil // not actually a raise
	}
	if (*s).Get(h) != label.Star {
		return ErrPrivilege
	}
	*r = (*r).With(h, lvl)
	return nil
}

// Fork creates a new process whose labels copy the calling context's —
// including ⋆ privileges, which is one of the two ways privilege is
// distributed (§5.3: "either by forking or using ... decontamination") —
// and whose address space is a copy of the base process's.
//
// The label snapshot is taken under p's lock; the child is then created and
// its memory filled without it (registry before process locks, ordering
// rule 1). The address-space copy is safe because only p's own goroutine —
// the one running Fork — writes p.space.
func (p *Process) Fork(name string) *Process {
	p.mu.Lock()
	s, r := p.ctxLabels()
	sendL, recvL := *s, *r
	p.mu.Unlock()
	child := p.sys.newProcess(name, sendL, recvL)
	// Copy memory contents (plain copy; COW between processes is not
	// needed for the paper's accounting, which charges per-process pages).
	buf := make([]byte, mem.PageSize)
	forEachPage(p.space, func(n mem.PageNo) {
		p.space.ReadAt(mem.Addr(n)*mem.PageSize, buf)
		child.space.WriteAt(mem.Addr(n)*mem.PageSize, buf)
	})
	return child
}

// Exit kills the process: the ports its contexts own die, queued messages
// are dropped, and kernel state is released.
func (p *Process) Exit() {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	p.deadFlag.Store(true)
	// Drain the inbox so every message enqueued before this point is
	// counted as dropped. A send racing the flag flip may still publish
	// after this drain; that message is stranded unread — for the sender,
	// indistinguishable from any other silent drop (§4).
	p.drainInbox()
	if n := len(p.pending); n > 0 {
		p.sys.countDrop(portClass(p.name), uint64(n))
	}
	p.queued.Add(int64(-len(p.pending)))
	for _, m := range p.pending {
		freeMsg(m)
	}
	p.pending = nil
	// Kill every port the base context and the event processes own; this
	// takes their shard locks under p.mu (rule 2). Sends racing with exit
	// either observe the live snapshot (and are dropped at enqueue, since
	// p.dead holds) or the dead port.
	for port := range p.ports {
		p.sys.killPort(port)
	}
	for _, ep := range p.eps {
		p.reapLocked(ep)
	}
	p.cur = nil
	p.wakeAll()
	p.mu.Unlock()

	p.sys.procMu.Lock()
	delete(p.sys.procs, p.id)
	p.sys.procMu.Unlock()
}

func (p *Process) String() string {
	return fmt.Sprintf("proc %d (%s)", p.id, p.name)
}

func forEachPage(s *mem.Space, f func(mem.PageNo)) {
	for _, n := range s.PageList() {
		f(n)
	}
}
