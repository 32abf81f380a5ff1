package kernel

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync/atomic"

	"asbestos/internal/handle"
	"asbestos/internal/label"
)

// ErrNoPorts is returned by Select when called with no ports.
var ErrNoPorts = errors.New("kernel: Select requires at least one port")

// Port is a first-class endpoint to a kernel port, bound to one process:
// the process's capability-shaped view of the raw handle. It carries the
// port's resolved vnode, so Send and SendBatch through an endpoint skip the
// handle-table shard lookup that the v1 Process.Send pays on every call —
// the destination's routing state is a single atomic load.
//
// Two kinds of endpoint exist, distinguished only by what the process may
// do with them:
//
//   - Process.Open creates a port and returns the owning endpoint, which
//     can also receive (Recv, TryRecv, Drain), relabel (SetLabel) and
//     dissociate it;
//   - Process.Port binds an existing handle — typically one granted via a
//     DecontSend capability — as a send endpoint.
//
// A Port is safe for concurrent use by goroutines driving its process.
type Port struct {
	p *Process
	h handle.Handle
	// vn caches the resolved vnode (atomically, since endpoints may be
	// shared); nil until the handle first resolves.
	vn atomic.Pointer[vnode]
}

// Port binds an existing handle as an endpoint of p. The handle need not
// name a known port yet — resolution is retried on use — so an endpoint can
// be constructed from any handle carried in a message.
func (p *Process) Port(h handle.Handle) *Port {
	pt := &Port{p: p, h: h}
	pt.vn.Store(p.sys.lookup(h))
	return pt
}

// Handle returns the raw port handle, e.g. to embed in a wire message.
func (pt *Port) Handle() handle.Handle { return pt.h }

// Process returns the process this endpoint is bound to.
func (pt *Port) Process() *Process { return pt.p }

// resolve returns the port's vnode, caching it on first success; racing
// resolvers store the same value. A cached vnode stays safe to use after
// the port dies: it keeps the final owner-nil snapshot, so sends through it
// drop as "dead" exactly as a fresh lookup's nil does.
func (pt *Port) resolve() *vnode {
	vn := pt.vn.Load()
	if vn == nil {
		vn = pt.p.sys.lookup(pt.h)
		if vn != nil {
			pt.vn.Store(vn)
		}
	}
	return vn
}

// Send sends one message to the port (Figure 4), copying the payload, with
// the cached-vnode fast path: no handle-table lookup, no shard lock. It is
// a one-entry SendBatch — same checks, same drop accounting — so a nil
// error does not imply delivery.
func (pt *Port) Send(data []byte, opts *SendOpts) error {
	e := [1]BatchEntry{{Data: data, Opts: opts}}
	return pt.p.sendBatchVia(pt.h, pt.resolve(), e[:])
}

// SendBatch sends N messages to the port in a single syscall, with the
// cached-vnode fast path: semantically N Sends in order, with the
// sender-side work amortized (see BatchEntry).
func (pt *Port) SendBatch(entries []BatchEntry) error {
	return pt.p.sendBatchVia(pt.h, pt.resolve(), entries)
}

// Recv blocks until a message on this port is deliverable to the process's
// current context, or ctx ends the wait. See Process.RecvCtx.
func (pt *Port) Recv(ctx context.Context) (*Delivery, error) {
	return pt.p.RecvCtx(ctx, pt.h)
}

// TryRecv returns the next deliverable message on this port without
// blocking, or nil.
func (pt *Port) TryRecv() (*Delivery, error) {
	return pt.p.TryRecv(pt.h)
}

// Drain yields deliverable messages on this port until none is immediately
// available. See Mailbox.Drain.
func (pt *Port) Drain() iter.Seq[*Delivery] {
	return drain(pt.p, []handle.Handle{pt.h})
}

// SetLabel replaces the port's label; the caller must hold receive rights
// (§5.5).
func (pt *Port) SetLabel(l *label.Label) error {
	return pt.p.SetPortLabel(pt.h, l)
}

// Label returns the port's current label; only the owner may inspect it.
func (pt *Port) Label() (*label.Label, error) {
	return pt.p.PortLabel(pt.h)
}

// Dissociate abandons receive rights; pending and future messages to the
// port are dropped.
func (pt *Port) Dissociate() error {
	return pt.p.Dissociate(pt.h)
}

func (pt *Port) String() string {
	return fmt.Sprintf("port %v of %v", pt.h, pt.p)
}

// Mailbox is the receive side of a set of ports belonging to one process:
// a filtered, context-aware view of the process's message queue. A Mailbox
// over no ports receives on every port of the process — the event-loop
// idiom of the userspace servers.
type Mailbox struct {
	p      *Process
	filter []handle.Handle
}

// Mailbox builds a receive endpoint over the given ports, all of which
// must be endpoints of p (it panics otherwise — a Mailbox spanning two
// processes' queues cannot exist; use Select for that). With no arguments
// the mailbox spans every port the process owns.
func (p *Process) Mailbox(ports ...*Port) *Mailbox {
	m := &Mailbox{p: p}
	for _, pt := range ports {
		if pt.p != p {
			panic("kernel: Mailbox port belongs to a different process")
		}
		m.filter = append(m.filter, pt.h)
	}
	return m
}

// Recv blocks until a message on one of the mailbox's ports is deliverable
// to the process's current context, applies the Figure 4 label effects,
// and returns it — or returns ctx's error when the context ends the wait.
func (m *Mailbox) Recv(ctx context.Context) (*Delivery, error) {
	return m.p.RecvCtx(ctx, m.filter...)
}

// TryRecv returns the next deliverable message without blocking, or nil.
func (m *Mailbox) TryRecv() (*Delivery, error) {
	return m.p.TryRecv(m.filter...)
}

// Drain yields deliverable messages until none is immediately available —
// the burst-dispatch idiom: block in Recv for the first message of a
// burst, then range over Drain (breaking early to cap the burst) so the
// replies the burst generates can be batched:
//
//	d, err := mb.Recv(ctx)
//	...dispatch d...
//	for d := range mb.Drain() {
//		...dispatch d...
//	}
//	out.Flush()
//
// Like TryRecv, it never blocks; label effects are applied per message as
// it is yielded. Receive errors (process exit) just end the iteration.
func (m *Mailbox) Drain() iter.Seq[*Delivery] {
	return drain(m.p, m.filter)
}

func drain(p *Process, filter []handle.Handle) iter.Seq[*Delivery] {
	return func(yield func(*Delivery) bool) {
		for {
			d, err := p.TryRecv(filter...)
			if err != nil || d == nil {
				return
			}
			if !yield(d) {
				return
			}
		}
	}
}

// Select waits for a message on any of the given ports — which may belong
// to different processes — and returns the delivery together with the port
// it arrived on. It blocks without spinning: the caller parks one waiter
// channel with every involved process and wakes only on inbox activity,
// process exit, or ctx.
//
// Deliverability, label effects and filtering are those of each port's own
// process context at the instant of receipt, exactly as if the winning
// port's Recv had been called. When several ports are ready, the winner is
// the oldest deliverable message of the first ready process (processes are
// polled in the order they first appear in the argument list; within one
// process, arrival order — FIFO — decides, regardless of argument order).
// Ports of dead processes are skipped; when every port's process is dead,
// Select returns ErrDead.
func Select(ctx context.Context, ports ...*Port) (*Delivery, *Port, error) {
	if len(ports) == 0 {
		return nil, nil, ErrNoPorts
	}
	// Group the ports by process; each group is served by one TryRecv, so
	// within a process the queue's own FIFO order decides.
	type group struct {
		p      *Process
		filter []handle.Handle
		byH    map[handle.Handle]*Port
	}
	var groups []*group
	byProc := make(map[*Process]*group, len(ports))
	for _, pt := range ports {
		g := byProc[pt.p]
		if g == nil {
			g = &group{p: pt.p, byH: make(map[handle.Handle]*Port)}
			byProc[pt.p] = g
			groups = append(groups, g)
		}
		g.filter = append(g.filter, pt.h)
		if g.byH[pt.h] == nil {
			g.byH[pt.h] = pt
		}
	}

	// One buffered wake channel registered with every process: any of them
	// publishing into an empty inbox (or exiting) signals it. Registered
	// before the first scan so no arrival can slip between scan and park.
	w := make(chan struct{}, 1)
	for _, g := range groups {
		g.p.addWaiter(w)
	}
	defer func() {
		for _, g := range groups {
			g.p.removeWaiter(w)
		}
	}()

	for {
		dead := 0
		for _, g := range groups {
			d, err := g.p.TryRecv(g.filter...)
			if err == ErrDead {
				dead++
				continue
			}
			if err != nil {
				return nil, nil, err
			}
			if d != nil {
				return d, g.byH[d.Port], nil
			}
		}
		if dead == len(groups) {
			return nil, nil, ErrDead
		}
		select {
		case <-w:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}
