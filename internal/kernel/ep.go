package kernel

import (
	"context"

	"asbestos/internal/handle"
	"asbestos/internal/label"
	"asbestos/internal/mem"
	"asbestos/internal/stats"
)

// EventProcess is a lightweight, isolated context within a process (paper
// §6): a pair of labels, receive rights for the ports it created, and a
// copy-on-write view of the base process's memory. Its kernel state is
// charged at 44 bytes (EPKernelBytes). All mutable fields are guarded by
// the owning process's mutex.
//
// Only one event process of a process runs at a time; they share the base
// process's goroutine. The kernel switches contexts in Checkpoint.
type EventProcess struct {
	proc   *Process
	id     uint32
	sendL  *label.Label
	recvL  *label.Label
	ports  map[handle.Handle]bool
	view   *mem.View
	active bool // between Checkpoint return and Yield/EPExit
	seen   bool // has ever yielded (FirstRun sugar)
}

// ID returns the event process identifier, unique within its process.
func (e *EventProcess) ID() uint32 { return e.id }

// FirstRun reports whether this event process has never yielded: true for
// the activation that created it. The paper's idiom is checking a memory
// location the base process initialized to zero (§6.1); FirstRun is
// equivalent sugar.
func (e *EventProcess) FirstRun() bool { return !e.seen }

// Memory returns the event process's private copy-on-write view.
func (e *EventProcess) Memory() *mem.View { return e.view }

// CheckpointCtx implements ep_checkpoint (paper §6.1). The first call moves
// the process into the event-process realm: the base process will never run
// its own context again. Each call then blocks until a message is
// deliverable to some event process — or until ctx is cancelled or its
// deadline passes, in which case it returns ctx's error:
//
//   - a message to a port owned by an existing event process resumes that
//     event process;
//   - a message to a port still owned by the base process creates a fresh
//     event process whose labels are copied from the base and whose memory
//     view starts empty.
//
// Label contamination and declassification rules apply to the chosen event
// process's labels. An event process still active from a previous
// Checkpoint is implicitly yielded first.
func (p *Process) CheckpointCtx(ctx context.Context) (*Delivery, *EventProcess, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return nil, nil, ErrDead
	}
	p.inRealm = true
	if p.cur != nil {
		p.yieldLocked()
	}
	for {
		stop := p.sys.prof.Time(stats.CatKernelIPC)
		p.drainInbox()
		d, ep := p.scan(nil, true)
		stop()
		if d != nil {
			return d, ep, nil
		}
		if err := p.waitLocked(ctx); err != nil {
			return nil, nil, err
		}
		if p.dead {
			return nil, nil, ErrDead
		}
	}
}

// Checkpoint is CheckpointCtx without cancellation.
func (p *Process) Checkpoint() (*Delivery, *EventProcess, error) {
	return p.CheckpointCtx(context.Background())
}

// forkEP creates a fresh event process whose labels are copied from the
// base and whose memory view starts empty (§6.1). Caller holds p.mu.
func (p *Process) forkEP() *EventProcess {
	p.nextEP++
	ep := &EventProcess{
		proc:  p,
		id:    p.nextEP,
		sendL: p.sendL,
		recvL: p.recvL,
		ports: make(map[handle.Handle]bool),
		view:  mem.NewView(p.space),
	}
	p.eps[ep.id] = ep
	return ep
}

// Yield implements ep_yield: it saves the current event process's labels,
// receive rights and memory, and suspends until the next Checkpoint. The
// event process's private pages persist — this is how a worker caches
// session state across connections (§7.3).
func (p *Process) Yield() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		return ErrNotInRealm
	}
	p.yieldLocked()
	return nil
}

func (p *Process) yieldLocked() {
	p.cur.active = false
	p.cur.seen = true
	p.cur = nil
}

// EPClean implements ep_clean: it reverts the pages overlapping
// [a, a+n) of the current event process to the base process's contents,
// dropping the private copies. Workers call it before yielding to discard
// per-request temporaries such as the stack (§6.1, §7.3).
func (p *Process) EPClean(a mem.Addr, n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		return ErrNotInRealm
	}
	p.cur.view.Clean(a, n)
	return nil
}

// EPExit implements ep_exit: it frees the current event process — its
// kernel state, private pages, and the receive rights for any ports it
// created (messages to those ports are henceforth dropped).
func (p *Process) EPExit() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		return ErrNotInRealm
	}
	p.reapLocked(p.cur)
	p.cur = nil
	return nil
}

// EPReap frees a suspended event process by id: the garbage-collection
// counterpart of EPExit, invoked from outside any event-process context.
// A process cannot message its own event processes into exiting — their
// ports carry the self-at-0 capability label, and the base realm holds no
// ⋆ for them (deliberately: nothing short of the capability holder may
// force a session). But the event process is the process's OWN kernel
// state; reclaiming it destroys tainted data rather than revealing it, so
// no information-flow rule is implicated. Workers use it to bound cached
// sessions whose eviction message was lost to the unreliable IPC contract
// (§4). The active event process cannot be reaped — it is running, not
// leaked. Returns whether an event process was freed.
func (p *Process) EPReap(id uint32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	ep := p.eps[id]
	if ep == nil || ep == p.cur {
		return false
	}
	p.reapLocked(ep)
	return true
}

// reapLocked frees an event process's kernel state: every port it owns
// dies (messages to them are henceforth dropped), then the entry itself
// goes. Caller holds p.mu.
func (p *Process) reapLocked(ep *EventProcess) {
	for port := range ep.ports {
		p.sys.killPort(port)
	}
	delete(p.eps, ep.id)
}

// EPCount returns the number of live event processes (cached sessions plus
// the active one); diagnostics for the memory experiments.
func (p *Process) EPCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.eps)
}

// Current returns the active event process, or nil.
func (p *Process) Current() *EventProcess {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}
