// Package asbestos is a userspace reproduction of the Asbestos operating
// system's labels and event processes (Efstathopoulos et al., SOSP 2005):
// a kernel in which every IPC carries information-flow labels, and the
// servers of the paper's OK Web server run as labeled processes.
//
// # The IPC surface
//
// The center of the API is the Port endpoint. A process creates a port it
// owns with Open, binds a handle it was granted with Process.Port, and
// from then on sends through the endpoint — which caches the kernel route,
// so the hot path does one atomic load instead of a handle-table lookup:
//
//	sys := asbestos.NewSystem()
//	alice, bob := sys.NewProcess("alice"), sys.NewProcess("bob")
//	inbox := bob.Open(nil)                   // bob owns the receive side
//	inbox.SetLabel(asbestos.EmptyLabel(asbestos.L3))
//
//	ep := alice.Port(inbox.Handle())         // alice's send endpoint
//	ep.Send([]byte("hi"), nil)
//	d, err := inbox.Recv(ctx)                // ctx-aware: cancellable, deadline
//
// Receives honor context.Context throughout: Port.Recv, Mailbox.Recv and
// Process.RecvCtx return when a message is deliverable, the process exits,
// or the context ends the wait. TryRecv polls; Mailbox.Drain iterates a
// burst without blocking; Select waits on any of N ports — even of
// different processes — without spinning:
//
//	d, from, err := asbestos.Select(ctx, inbox, other)
//
// Batching (Port.SendBatch, Batcher) enqueues N messages with one syscall,
// one label check per run of entries sharing an options value and one
// queue CAS. Port.Send is a one-entry batch: both take the same kernel
// path, so they check, drop and count identically.
//
// Port endpoints are the only IPC surface: the v1 handle-based shims
// (Process.NewPort/Send/Recv/SendBatch) are gone. Create owned ports with
// Process.Open, bind wire-carried handles with Process.Port.
//
// # Layout
//
// The root package is a facade over the implementation packages, and the
// one import applications need:
//
//   - internal/label — the label algebra: levels [⋆,0,1,2,3], ⊑/⊔/⊓, the
//     chunked copy-on-write representation of §5.6
//   - internal/handle — 61-bit unpredictable handle allocation (§4, §8)
//   - internal/kernel — processes, ports, the send/recv label checks of
//     Figure 4, and event processes (§6)
//   - internal/evloop — the shared sharded event-loop runtime the trusted
//     services run on (capped burst dispatch, reply batching, cross-shard
//     forwarding)
//   - internal/netd, internal/db, internal/dbproxy, internal/idd,
//     internal/fs — the userspace servers of Figure 1
//   - internal/okws — the OK Web server (§7)
//   - internal/baseline, internal/workload, internal/experiments — the
//     evaluation harness (§9)
//
// examples/ and cmd/ are written against this facade and show idiomatic
// use; start with examples/quickstart.
package asbestos

import (
	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
)

// Handle names a compartment or port (61-bit, unique since boot).
type Handle = handle.Handle

// Level is an Asbestos privilege level: Star (⋆), L0..L3.
type Level = label.Level

// Label is a function from handles to levels with lattice operations.
type Label = label.Label

// Entry is one explicit (handle, level) pair of a label literal.
type Entry = label.Entry

// Re-exported levels.
const (
	Star = label.Star
	L0   = label.L0
	L1   = label.L1
	L2   = label.L2
	L3   = label.L3
)

// System is the emulated Asbestos kernel.
type System = kernel.System

// Option configures a System; see WithSeed, WithQueueLimit, WithProfiler.
type Option = kernel.Option

// Process is an Asbestos process; EventProcess its lightweight isolated
// context (§6).
type (
	Process      = kernel.Process
	EventProcess = kernel.EventProcess
)

// Port is a process's endpoint to a kernel port: cached send route,
// context-aware receive. Created by Process.Open (owning side) or
// Process.Port (send side).
type Port = kernel.Port

// Mailbox is the receive side of a set of one process's ports; see
// Process.Mailbox.
type Mailbox = kernel.Mailbox

// SendOpts carries the optional labels of the send system call: C_S, D_S,
// D_R and V (Figure 4).
type SendOpts = kernel.SendOpts

// Delivery is a received message: payload plus the sender's verification
// label. The payload is the receiver's own, to keep as long as it likes.
type Delivery = kernel.Delivery

// BatchEntry is one message of a SendBatch; Batcher accumulates messages
// per destination and flushes each as one batch.
type (
	BatchEntry = kernel.BatchEntry
	Batcher    = kernel.Batcher
)

// NewSystem boots an empty kernel.
var NewSystem = kernel.NewSystem

// WithSeed keys the handle allocator (deterministic tests); WithQueueLimit
// bounds per-process queues; WithProfiler attaches a component profiler.
var (
	WithSeed       = kernel.WithSeed
	WithQueueLimit = kernel.WithQueueLimit
	WithProfiler   = kernel.WithProfiler
)

// Select waits for a message on any of the given ports — which may belong
// to different processes — returning the delivery and the port it arrived
// on.
var Select = kernel.Select

// NewBatcher returns an empty per-destination send coalescer for p.
var NewBatcher = kernel.NewBatcher

// ErrDead is returned by receives on (and sends from) an exited process.
var ErrDead = kernel.ErrDead

// NewLabel builds a label from a default level and explicit entries.
var NewLabel = label.New

// EmptyLabel returns the label mapping every handle to def.
var EmptyLabel = label.Empty

// ParseLabel parses the paper's set notation, e.g. "{h7 *, h9 3, 1}".
var ParseLabel = label.Parse

// Grant builds a D_S label handing out ⋆ for the given handles (capability
// grant, §5.5); Taint builds a C_S contamination label; AllowRecv builds a
// D_R clearance label; VerifyLabel builds a V credential proof.
var (
	Grant       = kernel.Grant
	Taint       = kernel.Taint
	AllowRecv   = kernel.AllowRecv
	VerifyLabel = kernel.VerifyLabel
)
