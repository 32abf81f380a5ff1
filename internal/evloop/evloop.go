// Package evloop is the shared sharded event-loop runtime behind the
// trusted Asbestos services (ok-demux, netd, ok-dbproxy, idd, fsd). Each
// of them used to hand-roll the same ~200-line loop — drain a Mailbox
// burst, dispatch by port, flush a Batcher, forward cross-shard work;
// evloop owns that skeleton once, so loop behaviour (the burst cap, payload
// lifecycle, empty-payload tolerance, shard forwarding, ctx-driven stop)
// can be stated once and tested once.
//
// A Group runs Config.Shards independent loops. Each Shard is its own
// kernel process with exclusively-owned state: the service registers port
// handlers on it before Run, and the loop then dispatches deliveries in
// bursts of at most BurstCap, flushing the shard's Batcher after every round.
//
// # Ownership rules
//
//   - A Shard's handlers, tables and Batcher belong to its loop goroutine.
//     Handlers run only on that goroutine (plus the construction-time
//     Dispatch calls a launcher makes before Run); nothing in a shard needs
//     locking. Registration (Handle, HandleDefault) must complete before
//     Run.
//   - Cross-shard traffic goes through each shard's forward port: the Group
//     exchanges ⋆ grants for every ordered shard pair at construction, and
//     Peer(i) is a route-cached endpoint to shard i's port. Buffer batched
//     forwards on Out() with Peer(i).Handle() as the destination; use
//     Peer(i).Send directly when the message must be visible to the sibling
//     before the current handler returns (listener replication and other
//     ordering-sensitive control traffic).
//   - Messages buffered on Out() are flushed after the burst; privileges a
//     buffered message needs must be shed via Out().DropAfter, never
//     directly (the Batcher contract).
//
// # Release rules
//
// The loop releases every delivery after its handler returns
// (kernel.Delivery.Release), returning the payload buffer to the kernel's
// pool — this is what makes the trusted services allocation-free per
// delivered payload. A handler that retains d.Data bytes past its own
// return must copy them (wire.Reader.Bytes already copies) or take
// ownership with d.Detach(); retaining the slice without either is a
// use-after-release bug, and the kernel's detector panics on the double
// releases that usually accompany one. The no-retain rule is normative and
// machine-checked: asbestosvet's retaincheck analyzer resolves the handler
// behind every Handle/HandleForward/HandleDefault registration and flags
// any statement that lets the delivery or a payload alias outlive the
// handler call.
//
// # Timers
//
// Each shard owns a timer set (see timer.go): Shard.Timer makes a per-key
// one-shot timer whose handler runs on the loop goroutine, exactly like a
// port handler. The set is a binary min-heap keyed by each timer's exact
// deadline, so Arm, re-arm and Stop are O(log n) and a timer fires on the
// first advance at or after its deadline, plus whatever the loop was
// already busy doing. The rules:
//
//   - Timers belong to the shard that created them. Arm, Stop and the
//     expiry handler all run on the loop goroutine (or before Run, during
//     construction); arming a sibling shard's timer from a handler is a
//     data race.
//   - Arm re-arms: calling it on an armed timer moves the deadline.
//     A deadline at or before the latest advance fires on the next
//     advance to a later instant, never the current one, so a handler may
//     re-arm its own timer from inside the expiry callback (the
//     periodic-timer idiom) without looping.
//   - An advance pops due timers one at a time, earliest first: a timer
//     that an earlier handler stops in the same advance does not fire.
//   - An idle shard arms nothing and sleeps indefinitely: the loop blocks
//     with a receive deadline only while at least one timer is armed, so a
//     quiet service costs zero wakeups.
//   - Expiry handlers may buffer sends on Out(); the loop flushes after
//     each advance that fired, same as after a dispatch burst.
//
// Why a heap, not a timing wheel: the clocks are few. Under every gated
// workload no shard ever held more than two armed timers, and no timer
// fired; only login.cold arms one per request (the pending-login retry,
// stopped by the reply). At that population a heap operation is a few
// comparisons, and even 10 000 armed timers cost an arm–stop–arm well
// under a microsecond.
//
// A panicking handler — port or timer — does not kill the shard: the loop
// recovers, counts the event (Group.HandlerPanics), releases the delivery
// and keeps draining.
//
// # Burst cap
//
// One round dispatches at most BurstCap deliveries before the flush. The
// bound exists because everything a round buffers on Out() waits for that
// flush, and due timers wait for the round to end: an unbounded drain
// under a flood would hold the first reply, and every expiry, behind the
// whole backlog. The cap is a constant, not a policy. Under the gated
// workloads no round dispatches more than about ten deliveries, so the
// cap binds only under a flood; 64 keeps the worst wait at 64 handler runs
// while still amortizing one SendBatch per destination over a deep queue.
package evloop

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/shard"
	"asbestos/internal/stats"
)

// Handler consumes one delivery. The payload is released when the handler
// returns; see the package comment's release rules.
type Handler func(d *kernel.Delivery)

// Config configures a Group.
type Config struct {
	// Name is the kernel-process name; shard i of a multi-shard group is
	// named "Name/i".
	Name string
	// Shards is the loop count, clamped like every other shard knob
	// (0 = one per schedulable core).
	Shards int
	// Category attributes loop time to one of the Figure 9 components.
	Category stats.Category
}

// BurstCap is the most deliveries one round dispatches before the flush;
// see the package comment.
const BurstCap = 64

// Group is a set of sharded event loops sharing one lifecycle: Run runs
// every loop until Stop cancels the group context.
type Group struct {
	sys    *kernel.System
	cfg    Config
	shards []*Shard

	ctx    context.Context
	cancel context.CancelFunc

	// panics counts handler panics the loops recovered from (see
	// dispatchRelease): one malformed message must not kill a
	// trusted-service shard.
	panics stats.Counter
}

// Shard is one event loop: its own kernel process, dispatch table, Batcher
// and timer set, touched only by its own goroutine once Run starts.
type Shard struct {
	g   *Group
	idx int

	proc  *kernel.Process
	out   *kernel.Batcher
	fwd   *kernel.Port
	peers []*kernel.Port

	handlers map[handle.Handle]Handler
	ports    []*kernel.Port // registration order, for the filtered mailbox
	fallback Handler
	mbox     *kernel.Mailbox

	timers timers

	// Reusable receive-deadline machinery (recvNext): one runtime timer
	// per shard that cancels the current receive context, instead of a
	// fresh context.WithDeadline (+timer) per receive.
	recvCtx    context.Context
	recvDone   context.CancelFunc
	recvCancel atomic.Pointer[context.CancelFunc]
	recvTimer  *time.Timer
}

// New builds a Group of shard.Clamp(cfg.Shards) loops: one kernel process,
// forward port and Batcher per shard, with forward-port ⋆ grants exchanged
// for every ordered shard pair (fresh ports are closed by capability, so
// an un-granted cross-shard send would be silently dropped).
func New(sys *kernel.System, cfg Config) *Group {
	n := shard.Clamp(cfg.Shards)
	ctx, cancel := context.WithCancel(context.Background())
	g := &Group{sys: sys, cfg: cfg, ctx: ctx, cancel: cancel}
	for i := 0; i < n; i++ {
		name := cfg.Name
		if n > 1 {
			name = fmt.Sprintf("%s/%d", cfg.Name, i)
		}
		proc := sys.NewProcess(name)
		g.shards = append(g.shards, &Shard{
			g:        g,
			idx:      i,
			proc:     proc,
			out:      kernel.NewBatcher(proc),
			fwd:      proc.Open(nil),
			handlers: make(map[handle.Handle]Handler),
		})
	}
	for _, s := range g.shards {
		var grants []kernel.BootstrapGrant
		for _, sib := range g.shards {
			if sib != s {
				grants = append(grants, kernel.BootstrapGrant{
					From: sib.proc, Handles: []handle.Handle{sib.fwd.Handle()},
				})
			}
		}
		kernel.BootstrapGrants(s.proc, grants)
		s.peers = make([]*kernel.Port, n)
		for j, sib := range g.shards {
			s.peers[j] = s.proc.Port(sib.fwd.Handle())
		}
	}
	return g
}

// Shards reports the loop count.
func (g *Group) Shards() int { return len(g.shards) }

// Shard returns loop i.
func (g *Group) Shard(i int) *Shard { return g.shards[i] }

// Context is the group lifecycle: done once Stop is called. Services use
// it for blocking receives outside the loop (client round trips) so
// shutdown cannot hang on a lost reply.
func (g *Group) Context() context.Context { return g.ctx }

// Run runs every shard's loop; it returns when Stop cancels the group
// context.
func (g *Group) Run() {
	var wg sync.WaitGroup
	for _, s := range g.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			s.run()
		}(s)
	}
	wg.Wait()
}

// Stop shuts the group down: context first (ends Run), then each shard's
// kernel state.
func (g *Group) Stop() {
	g.cancel()
	for _, s := range g.shards {
		s.proc.Exit()
	}
}

// Cancel ends the group context without releasing any shard's kernel
// state: Run returns, the processes stay alive. Stop is Cancel plus the
// per-shard Exit; the split exists for staged shutdowns and the lifecycle
// tests that pin cancellation — not process death — as the unblocking
// mechanism.
func (g *Group) Cancel() { g.cancel() }

// Index reports the shard's position in the group.
func (s *Shard) Index() int { return s.idx }

// Proc exposes the shard's kernel process (port creation, label
// inspection).
func (s *Shard) Proc() *kernel.Process { return s.proc }

// Out is the shard's Batcher, flushed after every dispatch round.
func (s *Shard) Out() *kernel.Batcher { return s.out }

// ForwardPort is the shard's own cross-shard port (handled via
// HandleForward).
func (s *Shard) ForwardPort() *kernel.Port { return s.fwd }

// Peer returns a route-cached endpoint from this shard's process to shard
// i's forward port (⋆ pre-granted).
func (s *Shard) Peer(i int) *kernel.Port { return s.peers[i] }

// Handle registers h for deliveries on pt, which must be a port of the
// shard's process. Registration must complete before the group runs.
func (s *Shard) Handle(pt *kernel.Port, h Handler) {
	if pt.Process() != s.proc {
		panic("evloop: Handle port belongs to a different process")
	}
	if _, dup := s.handlers[pt.Handle()]; !dup {
		s.ports = append(s.ports, pt)
	}
	s.handlers[pt.Handle()] = h
}

// HandleForward registers the shard's cross-shard handler.
func (s *Shard) HandleForward(h Handler) { s.Handle(s.fwd, h) }

// HandleDefault registers the fallback for ports without their own entry —
// the dynamic-port idiom (per-connection reply ports). A shard with a
// fallback receives on every port its process owns; without one, the loop's
// mailbox is filtered to the registered ports, leaving the rest (client
// reply ports a handler blocks on inline) untouched.
func (s *Shard) HandleDefault(h Handler) { s.fallback = h }

// Timer creates an unarmed one-shot timer on the shard's timer set. fn
// runs on the loop goroutine like any handler (and like any handler, a
// panic is recovered and counted, not fatal). Arm/Stop/re-arm follow the
// timer rules in the package comment.
func (s *Shard) Timer(fn func(now time.Time)) *Timer {
	return s.timers.newTimer(func(now time.Time) {
		defer func() {
			if r := recover(); r != nil {
				s.g.panics.Add(1)
			}
		}()
		fn(now)
	})
}

// AdvanceTimers fires the shard's timers due at now and reports how many
// fired. The loop calls it after every round; it is exported for the same
// reason Dispatch is — construction-time plumbing and tests that drive a
// shard synchronously. At runtime only the loop goroutine may call it.
func (s *Shard) AdvanceTimers(now time.Time) int { return s.timers.advance(now) }

// HandlerPanics reports how many handler panics the group's loops have
// recovered from.
func (g *Group) HandlerPanics() uint64 { return g.panics.Load() }

// Dispatch routes one delivery through the shard's table: the port's
// handler, else the fallback, else nothing (unknown ports are dropped like
// any other undeliverable message). Exposed for construction-time plumbing
// — launchers that must consume registrations synchronously before the
// loops start; at runtime only the loop goroutine may call it.
func (s *Shard) Dispatch(d *kernel.Delivery) {
	if h := s.handlers[d.Port]; h != nil {
		h(d)
		return
	}
	if s.fallback != nil {
		s.fallback(d)
	}
}

// run is the loop skeleton every trusted service used to copy: block for
// the first delivery (bounded by the next timer deadline), drain up to
// BurstCap without blocking, flush the Batcher, fire due timers.
func (s *Shard) run() {
	if s.mbox == nil {
		if s.fallback != nil {
			s.mbox = s.proc.Mailbox()
		} else {
			s.mbox = s.proc.Mailbox(s.ports...)
		}
	}
	defer func() {
		if s.recvTimer != nil {
			s.recvTimer.Stop()
		}
		if s.recvDone != nil {
			s.recvDone()
		}
	}()
	prof := s.g.sys.Profiler()
	for {
		d, err := s.recvNext()
		if err != nil {
			return
		}
		if d != nil {
			stop := prof.Time(s.g.cfg.Category)
			s.dispatchRelease(d)
			n := 1
			for d := range s.mbox.Drain() {
				s.dispatchRelease(d)
				if n++; n >= BurstCap {
					break
				}
			}
			s.out.Flush()
			stop()
		}
		if s.timers.Len() > 0 {
			stop := prof.Time(s.g.cfg.Category)
			if s.timers.advance(time.Now()) > 0 {
				s.out.Flush()
			}
			stop()
		}
	}
}

// dispatchRelease dispatches one delivery and releases it, surviving a
// panicking handler: the panic is recovered and counted first, then the
// release runs regardless (defer order), so a poisoned message can
// neither kill the shard nor leak its payload. A panic out of Release
// itself (a double-release bug) still propagates.
func (s *Shard) dispatchRelease(d *kernel.Delivery) {
	defer d.Release()
	defer func() {
		if r := recover(); r != nil {
			s.g.panics.Add(1)
		}
	}()
	s.Dispatch(d)
}

// recvNext blocks for the next delivery, bounded by the earliest timer
// deadline while any timer is armed. An expiry returns (nil, nil) so the
// loop can fire due timers; a group-context cancellation (or process
// death) ends the loop.
//
// The deadline is enforced by one reusable runtime timer per shard that
// cancels the current receive context — not a context.WithDeadline per
// receive, which allocates a context and a timer every round while armed.
// Only an actual expiry poisons the receive context and costs a
// replacement.
func (s *Shard) recvNext() (*kernel.Delivery, error) {
	deadline, armed := s.timers.nextDeadline()
	if !armed {
		return s.mbox.Recv(s.g.ctx)
	}
	wait := time.Until(deadline)
	if wait <= 0 {
		return nil, nil // already due: fire timers before blocking
	}
	if s.recvCtx == nil || s.recvCtx.Err() != nil {
		if s.recvDone != nil {
			s.recvDone()
		}
		ctx, cancel := context.WithCancel(s.g.ctx)
		s.recvCtx, s.recvDone = ctx, cancel
		s.recvCancel.Store(&cancel)
	}
	if s.recvTimer == nil {
		s.recvTimer = time.AfterFunc(wait, func() {
			if c := s.recvCancel.Load(); c != nil {
				(*c)()
			}
		})
	} else {
		s.recvTimer.Reset(wait)
	}
	d, err := s.mbox.Recv(s.recvCtx)
	s.recvTimer.Stop()
	if err != nil && errors.Is(err, context.Canceled) && s.g.ctx.Err() == nil {
		return nil, nil // receive deadline, not shutdown
	}
	return d, err
}
