// Package kernel emulates the Asbestos kernel in user space: processes,
// ports, labels on every IPC, and event processes (paper §4–§6).
//
// The emulation preserves the kernel's logic exactly while substituting Go
// machinery for hardware privilege:
//
//   - Processes are goroutines. Unlike the uniprocessor Asbestos prototype,
//     which ran the kernel as a monitor behind one big lock, this kernel is
//     sharded for multicore scaling (see "Locking" below): syscalls on
//     different processes proceed in parallel.
//   - Messaging is asynchronous and unreliable. send enqueues after checking
//     only the sender-side privilege requirements (Figure 4 requirements 2
//     and 3, which depend on sender state alone); deliverability (requirements
//     1 and 4) is evaluated at the instant the receiver tries to receive,
//     against its labels at that moment, exactly as §4 specifies. Messages
//     failing the check are silently dropped.
//   - Event processes share their base process's goroutine: only one event
//     process of a process runs at a time (they share the event loop, §6.1),
//     so Checkpoint switches the current context — labels, receive rights,
//     and the copy-on-write memory view.
//
// # Locking
//
// The single monitor mutex of the uniprocessor prototype is split three
// ways, and the message path itself is lock-free:
//
//   - Each Process has its own mutex guarding that process's labels,
//     event-process table, liveness bit and the consumer-side pending list;
//     the set of parked receivers has a leaf lock of its own, so that the
//     sender that wakes them never waits for a receive scan in progress.
//     Blocked Recv/RecvCtx/Checkpoint/Select
//     calls park on buffered per-waiter channels (see Process.waitLocked),
//     which is what lets a wait also end on a context.Context — deadline,
//     cancellation, service shutdown — or span several processes (Select).
//     The incoming message queue is NOT under this mutex: it is an
//     intrusive lock-free MPSC mailbox (mpsc.go) that senders push into
//     with an atomic CAS — one CAS per send call, whether Send or a
//     SendBatch of however many messages —
//     and the owner drains with one atomic swap. The receiver parks only
//     after draining the mailbox empty, and a sender signals waiters only
//     on the empty→non-empty transition, so steady-state traffic to a busy
//     receiver takes no locks at all on the enqueue side.
//   - The vnode table is sharded vnodeShards ways by handle hash; each
//     shard has an RWMutex guarding its map. A vnode's routing state (port
//     label, owner, owning event process) is an immutable snapshot behind
//     an atomic pointer, written only by the owning process under its own
//     mutex: readers — every send, every receive-side scan — just Load it,
//     and a Port endpoint that has cached the vnode touches neither the
//     shard lock nor the map. The handle allocator is sharded the same 64
//     ways (internal/handle), one lock-free counter per shard, selected by
//     creating process.
//   - The process registry and environment table have their own mutexes, and
//     hot-path counters (drops, queue occupancy, label-cache hits) use
//     lock-free striped or atomic counters from internal/stats.
//
// Lock ordering, which every code path must respect:
//
//  1. System.procMu (registry) is acquired before any per-process mutex and
//     never while one is held. (Unchanged from the sharded monitor.)
//  2. A per-process mutex is acquired before a vnode shard lock; a shard
//     lock is NEVER held while acquiring a process mutex. (Unchanged —
//     send snapshots the vnode under the shard lock, releases it, and only
//     then touches the receiver.) Exit relies on it: holding the dying
//     process's mutex, it takes the shard lock of each port its contexts
//     own, and no other.
//  3. At most one per-process mutex is held at a time — no syscall locks
//     two processes. With the lock-free mailbox this rule has become
//     vacuous on the send path: the enqueue itself takes NO lock, and the
//     empty→non-empty wakeup takes only the receiver's waiter-set leaf lock
//     (rule 4), never its mutex. Cross-process effects still happen against
//     an immutable snapshot of the sender's labels, which is exactly the
//     atomicity Figure 4 requires: sender-side checks against the sender's
//     labels at send (batch) time, receiver-side checks against the
//     receiver's labels at delivery time.
//  4. Leaf locks (profiler stripes, label op-cache shards, a process's
//     waiter set) take no other locks and may be acquired under any of the
//     above, or under none. The handle
//     allocator, formerly a leaf lock, is now lock-free and off this list;
//     the retired rule that the allocator mutex be taken last is subsumed.
//
// # Vnode lifetime
//
// A compartment handle's vnode lives as long as the system. A port's
// vnode lives as long as the port: Dissociate, EPExit, EPReap and Exit all
// end it through System.killPort, which publishes the port's final,
// owner-nil snapshot and deletes the vnode from its shard map in one
// write-locked step. A Port endpoint that cached the vnode keeps that final
// snapshot, and a fresh lookup finds nothing; both take the same "dead"
// branch of the send path and of the receive scan, so no sender can tell a
// reclaimed port from a dissociated one. Handles are unique since boot and
// never reused, so a deleted entry can never alias a later port.
//
// Races the sharding does introduce are exactly the ones unreliable
// messaging already absorbs: a port may die between the sender's vnode
// snapshot and the enqueue, in which case the message is dropped at
// enqueue (dead receiver) or at the receiver's next scan (dead port) —
// indistinguishable, for the sender, from any other silent drop of §4. The
// lock-free mailbox adds one more of the same flavor: a send racing
// process exit between the liveness check and the push may strand its
// message unread and uncounted, which the sender again cannot tell apart
// from a silent drop.
//
// Kernel data-structure sizes follow the paper for memory accounting:
// 64-byte vnodes per live handle, 320-byte processes, 44-byte event
// processes, and chunked labels of ≈300 bytes minimum.
//
// # Statically enforced contracts
//
// Four of this package's usage rules are normative and machine-checked by
// the asbestosvet suite (cmd/asbestosvet; CI runs it via go vet
// -vettool, and `go build -o vet ./cmd/asbestosvet && go vet -vettool=vet
// ./...` reproduces the check locally):
//
//  1. Every *Delivery obtained from Recv/RecvCtx/TryRecv/Select or
//     Mailbox.Drain reaches Release or Detach on every control-flow path
//     (analyzer: releasecheck).
//  2. Every ⋆-level capability grant (Grant) is paired with
//     DropPrivilege/DropAfter on every path, or carries an
//     //asbestos:keepstar <reason> waiver (analyzer: privdrop).
//  3. Handlers running under internal/evloop do not retain the delivery
//     or its payload past their return (analyzer: retaincheck).
//  4. Blocking receives are given a cancellable context, never a bare
//     context.Background()/TODO() (analyzer: ctxrecv).
package kernel

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/label"
	"asbestos/internal/stats"
)

// ProcID identifies a process.
type ProcID uint32

// ProcKernelBytes is the size of the minimal kernel process structure
// (paper §6: "Asbestos's minimal process structure takes 320 bytes").
const ProcKernelBytes = 320

// EPKernelBytes is the size of an event process's kernel state (paper §6:
// "altogether occupying 44 bytes of Asbestos kernel memory").
const EPKernelBytes = 44

// msgKernelBytes is the per-queued-message kernel overhead (queue entry,
// label references) charged by memory accounting.
const msgKernelBytes = 48

// defaultQueueLimit bounds each process's incoming message queue; sends
// beyond it are dropped (resource exhaustion, §4).
const defaultQueueLimit = 16384

// vnodeShards is the number of independent vnode-table shards. Must be a
// power of two. 64 keeps per-shard maps tiny at paper scale (10k sessions ≈
// a few hundred vnodes per shard) while letting that many cores touch the
// table concurrently.
const vnodeShards = 64

// System is the emulated kernel: the authority for handles, ports,
// processes and label checks. Its state is sharded as described in the
// package comment; no syscall serializes against unrelated syscalls.
type System struct {
	alloc *handle.Allocator

	shards [vnodeShards]vnodeShard

	procMu sync.Mutex
	procs  map[ProcID]*Process
	next   ProcID

	envMu sync.RWMutex
	env   map[string]handle.Handle

	prof *stats.Profiler

	queueLimit int
	drops      stats.Counter // messages dropped by label checks or overflow
	dropsBy    sync.Map      // port class (string) → *stats.Counter

	// fault is the optional send-path fault injector; nil (the default)
	// costs one pointer check per send.
	fault   FaultInjector
	delayed atomic.Int64 // injector-delayed messages not yet re-admitted
}

// vnodeShard is one slice of the handle table: a map plus the lock guarding
// it. Reads of a vnode's routing state do not need the lock (see vnode).
type vnodeShard struct {
	mu sync.RWMutex
	m  map[handle.Handle]*vnode
}

// vnode is the kernel structure behind every live handle (paper §5.6).
// For port handles, st points at an immutable snapshot of the routing
// state; h and isPort are set before publication and never change. Only
// the owning process writes a live port's state, holding its own mutex
// (Open, SetPortLabel, and killPort when the port dies); readers — every
// send and every receive-side scan — just Load, so once a sender holds a
// *vnode (a Port endpoint caches one), the message fast path touches no
// lock and no map. A port's vnode leaves the table when the port dies (see
// "Vnode lifetime" in the package comment); a holder of the pointer keeps
// the final owner-nil snapshot.
type vnode struct {
	h      handle.Handle
	isPort bool
	st     atomic.Pointer[portState]
}

// portState is one immutable snapshot of a port's routing fields. A dead
// port's final snapshot is the zero value: no owner, no label.
type portState struct {
	owner   *Process // receive rights; nil once the port is dead
	ownerEP uint32   // owning event process id, 0 = the base process
	label   *label.Label
}

// state returns the port's current routing snapshot, or ok=false for
// non-port handles. Lock-free.
func (vn *vnode) state() (*portState, bool) {
	if vn == nil || !vn.isPort {
		return nil, false
	}
	return vn.st.Load(), true
}

// shard returns the shard responsible for h. Handles are outputs of a keyed
// permutation (see internal/handle), so the low bits are already uniformly
// distributed.
func (s *System) shard(h handle.Handle) *vnodeShard {
	return &s.shards[uint64(h)&(vnodeShards-1)]
}

// Option configures a System.
type Option func(*System)

// WithSeed keys the handle allocator; systems with equal seeds allocate
// identical handle sequences (deterministic tests).
func WithSeed(seed uint64) Option {
	return func(s *System) { s.alloc = handle.NewAllocator(seed) }
}

// WithProfiler attaches a component-cost profiler; the kernel records
// send/recv label-operation time under stats.CatKernelIPC (Figure 9's
// "Kernel IPC" series).
func WithProfiler(p *stats.Profiler) Option {
	return func(s *System) { s.prof = p }
}

// WithQueueLimit overrides the per-process queue bound.
func WithQueueLimit(n int) Option {
	return func(s *System) { s.queueLimit = n }
}

// FaultDecision is one message's injected fate on the send path.
type FaultDecision struct {
	// Drop discards the message (counted as a drop for its class).
	Drop bool
	// Dup enqueues a second, independently-owned copy.
	Dup bool
	// Delay > 0 re-admits the message after the given pause instead of
	// enqueueing it inline.
	Delay time.Duration
}

// FaultInjector decides the fate of each message as it passes the kernel
// send path, keyed by the destination port class (the owner process's
// name, normalized by portClass). Implementations must be safe for
// concurrent use; internal/faultinject provides a seeded deterministic
// one. Injection applies after the sender-side label checks, so injected
// faults are indistinguishable from the silent drops §4 already allows.
type FaultInjector interface {
	Decide(class string) FaultDecision
}

// WithFaultInjector attaches a send-path fault injector. Off by default;
// when unset the send path pays only a nil check.
func WithFaultInjector(f FaultInjector) Option {
	return func(s *System) { s.fault = f }
}

// NewSystem boots an empty kernel.
func NewSystem(opts ...Option) *System {
	s := &System{
		alloc:      handle.NewAllocator(0x0a5b_e570_5000_0001),
		procs:      make(map[ProcID]*Process),
		env:        make(map[string]handle.Handle),
		queueLimit: defaultQueueLimit,
	}
	for i := range s.shards {
		s.shards[i].m = make(map[handle.Handle]*vnode)
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// NewProcess creates a process with default labels: send {1}, receive {2}
// (paper §5.1). The caller drives it from any goroutine; all syscalls are
// methods on the returned Process.
func (s *System) NewProcess(name string) *Process {
	return s.newProcess(name, label.Empty(label.DefaultSend), label.Empty(label.DefaultRecv))
}

func (s *System) newProcess(name string, sendL, recvL *label.Label) *Process {
	p := &Process{
		sys:   s,
		name:  name,
		sendL: sendL,
		recvL: recvL,
		space: newSpace(),
		ports: make(map[handle.Handle]bool),
		eps:   make(map[uint32]*EventProcess),
	}
	s.procMu.Lock()
	s.next++
	p.id = s.next
	s.procs[p.id] = p
	s.procMu.Unlock()
	return p
}

// SetEnv publishes a handle under a well-known name. Communication is
// bootstrapped through such environment variables because port names are
// unpredictable (paper §4).
func (s *System) SetEnv(name string, h handle.Handle) {
	s.envMu.Lock()
	defer s.envMu.Unlock()
	s.env[name] = h
}

// Env looks up a published handle.
func (s *System) Env(name string) (handle.Handle, bool) {
	s.envMu.RLock()
	defer s.envMu.RUnlock()
	h, ok := s.env[name]
	return h, ok
}

// Drops reports how many messages the kernel has discarded (failed label
// checks, dead ports, queue overflow). This counter is for tests and
// diagnostics only: a hardened kernel would not expose it, since observing
// drops is exactly the storage channel §8 discusses.
func (s *System) Drops() uint64 {
	return s.drops.Load()
}

// DropStats breaks Drops down by destination port class — the receiving
// process's name with shard ("netd/3") and per-service worker
// ("worker-echo") suffixes folded, or "dead" for messages to dissociated
// or unknown ports. Same diagnostics-only caveat as Drops.
func (s *System) DropStats() map[string]uint64 {
	out := make(map[string]uint64)
	s.dropsBy.Range(func(k, v any) bool {
		if n := v.(*stats.Counter).Load(); n > 0 {
			out[k.(string)] = n
		}
		return true
	})
	return out
}

// DelayedInFlight reports injector-delayed messages that have not yet
// been re-admitted; chaos harnesses quiesce on zero before asserting pool
// balance.
func (s *System) DelayedInFlight() int64 { return s.delayed.Load() }

// countDrop records n dropped messages bound for the given port class.
func (s *System) countDrop(class string, n uint64) {
	s.drops.Add(n)
	c, ok := s.dropsBy.Load(class)
	if !ok {
		c, _ = s.dropsBy.LoadOrStore(class, new(stats.Counter))
	}
	c.(*stats.Counter).Add(n)
}

// dropClassDead is the drop class for undeliverable destinations;
// dropClassReject counts the entries of send calls rejected by a
// sender-side privilege failure. A reject to a live port is counted as
// "reject:<class>"; the bare class covers unresolvable destinations.
const (
	dropClassDead   = "dead"
	dropClassReject = "reject"
)

// portClass folds a process name to its drop-stats class: the shard
// suffix ("idd/3" → "idd") and the per-service worker suffix
// ("worker-echo" → "worker") collapse so classes stay low-cardinality.
func portClass(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	if strings.HasPrefix(name, "worker-") {
		return "worker"
	}
	return name
}

// Profiler returns the attached profiler (possibly nil).
func (s *System) Profiler() *stats.Profiler { return s.prof }

// install publishes a fully built vnode in the handle table. The shard
// lock is taken internally; since shard locks sit below process mutexes in
// the lock order (rule 2), callers may hold a process mutex.
func (s *System) install(vn *vnode) {
	sh := s.shard(vn.h)
	sh.mu.Lock()
	sh.m[vn.h] = vn
	sh.mu.Unlock()
}

// lookup finds the live vnode behind h, or nil: an unknown handle and a
// dead port look the same. A caller may cache the pointer; if the port
// dies, the cached vnode keeps its final owner-nil snapshot.
func (s *System) lookup(h handle.Handle) *vnode {
	sh := s.shard(h)
	sh.mu.RLock()
	vn := sh.m[h]
	sh.mu.RUnlock()
	return vn
}

// killPort ends the life of port h: in one step under the shard write
// lock, it publishes the port's final owner-nil snapshot and deletes its
// vnode from the handle table. Dissociate, EPExit, EPReap and Exit all end
// a port here. The caller holds the owning process's mutex (rule 2) and
// names a live port one of its contexts owns.
func (s *System) killPort(h handle.Handle) {
	sh := s.shard(h)
	sh.mu.Lock()
	sh.m[h].st.Store(&portState{})
	delete(sh.m, h)
	sh.mu.Unlock()
}

// MemStats walks kernel structures and user memory, reproducing the
// accounting of Figure 6 ("includes all memory allocated by both kernel and
// user programs"): one vnode per live handle, so a dead port costs
// nothing. Labels shared between entities are counted once, modelling the
// paper's refcounted copy-on-write label sharing.
//
// The walk locks one structure at a time (registry, then each process, then
// each shard), so against a running workload the report is a best-effort
// snapshot; the experiment harness quiesces first, as the paper's
// measurements do.
func (s *System) MemStats() stats.MemReport {
	var r stats.MemReport
	labels := make(map[*label.Label]bool)
	note := func(l *label.Label) {
		if l != nil {
			labels[l] = true
		}
	}

	s.procMu.Lock()
	procs := make([]*Process, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.procMu.Unlock()

	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, vn := range sh.m {
			r.KernelBytes += handle.VnodeBytes
			if st, ok := vn.state(); ok {
				note(st.label)
			}
		}
		sh.mu.RUnlock()
	}

	for _, p := range procs {
		p.mu.Lock()
		// Adopt the consumer role (we hold p.mu) and fold any published but
		// undrained messages into pending so the walk sees the whole queue.
		p.drainInbox()
		r.KernelBytes += ProcKernelBytes
		r.KernelBytes += len(p.pending) * msgKernelBytes
		for _, m := range p.pending {
			r.KernelBytes += len(m.Data)
			note(m.es)
			note(m.ds)
			note(m.dr)
			note(m.v)
		}
		note(p.sendL)
		note(p.recvL)
		r.UserPages += p.space.Pages()
		for _, ep := range p.eps {
			r.KernelBytes += EPKernelBytes
			note(ep.sendL)
			note(ep.recvL)
			r.UserPages += ep.view.PrivatePages()
			if ep.active {
				// An active event process holds a message-queue page
				// (paper §9.1's active-session accounting).
				r.UserPages++
			}
		}
		p.mu.Unlock()
	}
	for l := range labels {
		r.KernelBytes += l.SizeBytes()
	}
	return r
}

// Processes returns a snapshot count of live processes (diagnostics).
func (s *System) Processes() int {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	return len(s.procs)
}

// Handles returns the number of live handles: every compartment handle
// ever created, plus the ports that have not died (diagnostics).
func (s *System) Handles() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
