// Package netd implements the Asbestos network server (paper §7.7) through
// which all network traffic flows — replicated into N event loops (shards)
// on the shared internal/evloop runtime, each owning a disjoint slice of
// the connections by id hash (the runtime provides the capped
// burst-draining loop, reply batching, cross-shard forward ports and
// delivery release; see the evloop package doc for its ownership and
// Release rules). netd wraps each connection in an Asbestos port, services
// READ/WRITE/CONTROL/ADDTAINT messages on that port — the ops Figure 5
// needs, beside LISTEN and its new-connection notify on the service port —
// and with ADDTAINT taints a connection with a user handle, so that every
// byte read from user u's connection carries uT 3 and only suitably labeled
// processes can write to it. Remote peers only dial in: netd opens no
// outbound connections.
//
// Privilege lifetimes. A shard holds ⋆ for a listener's notify port for
// as long as the listen registration lives, so a listener may take its
// read and taint replies on the notify port: each such reply names the
// connection it answers. Any other reply port's ⋆ is shed once the reply
// is sent. A shard holds uT ⋆ and receives at uT 3 exactly while a live
// connection it owns is tainted with uT; the last one closed or expired
// lowers both again.
//
// The paper's netd contains an LWIP TCP/IP stack and an E1000 driver; here
// the wire is pluggable. Everything below the shard loops goes through the
// Transport seam (transport.go): the in-memory Network on which simulated
// peers exchange buffered byte streams, and one real-socket engine behind
// ListenTCP — the epoll poller (poller_linux.go). The platform is the only
// selector: Linux real sockets always go through the poller, and on other
// platforms ListenTCP returns ErrTCPUnsupported and everything runs over
// the simulated wire. A hidden driver process injects connection and data
// events into netd's driver ports — the moral equivalent of an interrupt
// handler.
//
// Poller ownership rules (poller_linux.go). The poller runs ONE
// goroutine per netd shard; poller i owns every accepted fd whose
// connection id hashes to shard i (the same shard.OfU64 split the shard
// loops use, so a connection's poller index equals its owning shard
// index). All fd syscalls — accept4, read, writev, epoll_ctl, shutdown,
// close — happen on the owning poller goroutine, with one deliberate
// exception: PushOutbound, finding the outbound ring empty and no write
// interest armed, writes the fd directly from the shard goroutine under
// the connection mutex (destroy marks the conn dead and resets the ring
// under that same mutex BEFORE closing the fd, so a direct write can
// never race a close or land on a reused fd number). Otherwise the shard
// loop talks to a poller connection exclusively through the WireConn
// methods, which touch the in/out rings under the connection mutex and,
// when the poller must act (a writev spill to drain, a read window
// reopening), post a deduplicated op and wake the poller via its eventfd.
// The inbound ring has two users who cannot see each other's progress —
// the shard until it unregisters the connection, the poller until destroy
// — so the SECOND of shard-done / socket-done resets it and returns its
// chunks to the pool (inboundRing, transport.go): nothing a connection
// borrowed is left to the collector.
// Accept happens inline on each poller's SO_REUSEPORT listen socket; a
// connection accepted by poller j but owned by poller i is handed over as
// an adopt op, so ownership is established before the first byte moves.
// EPOLLIN is disarmed while the inbound window is full and the read-side
// mask drops entirely at EOF; EPOLLOUT is armed only while a writev left
// backlog — an idle parked connection costs zero events and zero
// goroutines. The poller has one wait, the one a net.Conn reader uses: it
// parks in the runtime netpoller on the epoll fd itself (an epoll
// fd is pollable) and collects events with a zero-timeout EpollWait when
// woken; a pending linger or accept-pause deadline travels as the epoll
// file's read deadline. It never polls an empty set and never blocks a
// thread in EpollWait.
//
// The Transport contract, which the simulated wire, the poller and any
// future transport must honor:
//
//   - The Injector assigns connection ids (Injector.NewID); a transport
//     never invents its own. The id fixes the owning shard for the
//     connection's whole life via shard.OfU64(id, shards) — the transport
//     does not know or care which shard that is.
//   - A transport Registers a WireConn with the Injector BEFORE injecting
//     its evNewConn, so the owning shard can resolve the id when the event
//     arrives.
//   - Per-connection event order is evNewConn, then any interleaving of
//     evData/evClosed, with evClosed last. All of one connection's events
//     go to one driver port (the Injector deals by id hash), so the owning
//     shard observes them in injection order; events for different
//     connections have no ordering guarantee.
//   - evData is edge-style: it need only be injected when the inbound
//     buffer transitions empty→non-empty. The shard re-checks the buffer
//     directly on every read request, so a transport must not rely on one
//     evData per chunk — and the shard must not rely on more.
//   - WireConn buffer methods (TakeInbound, PushOutbound, CloseOutbound,
//     BufferState) are called only from the owning shard's loop; the
//     transport's own goroutines stay on the socket side of the buffers.
//     PushOutbound accepts everything — backpressure from a slow client
//     must land on the transport's writer (and ultimately the client),
//     never block the shard.
//   - Netd.Stop closes transports (Transport.Close) before stopping the
//     shard loops. Close unblocks pending accepts — only the TCP front
//     end has any: its pollers stop accepting and close their listen
//     sockets. On the simulated wire, later Dials fail with ErrClosed. A
//     connection's end — remote close or transport teardown — is always
//     reported via evClosed, never by vanishing silently.
package netd

import (
	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/wire"
)

// Request op (application → netd service port).
const opListen = 1 // lport u16, notify handle; DS grants notify ⋆

// Driver events (driver process → netd driver ports; each event is dealt
// to the shard owning the connection id).
const (
	evNewConn = 10 // connID u64, lport u16
	evData    = 11 // connID u64
	evClosed  = 12 // connID u64
)

// Internal shard-to-shard event, carried on the evloop forward ports:
// shard 0 (the service-port owner) replicates listener registrations.
const evListen = 13 // lport u16, notify handle

// Connection ops (application → connection port uC).
const (
	opRead     = 20 // reply handle, maxLen u32; DS grants reply ⋆
	opWrite    = 21 // reply handle (None = unacknowledged), data; DS grants reply ⋆
	opControl  = 22 // reply handle (None = unacknowledged), cmd byte; DS grants reply ⋆
	opAddTaint = 24 // reply handle, taint handle; DS grants reply ⋆ and taint ⋆
)

// Control commands.
const (
	CtlClose = 1
)

// Reply ops (netd → application reply ports). A read or taint reply names
// the connection it answers, so one port — a listener's notify port — can
// carry the exchanges of many connections.
const (
	OpNewConnNotify = 30 // conn port handle (granted ⋆), lport u16
	OpReadReply     = 31 // eof byte, data, conn port handle
	OpWriteReply    = 32 // n u32
	OpControlReply  = 33 // ok byte
	OpAddTaintReply = 35 // ok byte, conn port handle
)

// The client helpers below take the destination as a *kernel.Port — an
// endpoint of the calling process, usually cached so repeated requests on
// one connection reuse the resolved route. Reply ports travel as raw
// handles: they are wire payload for netd, not a destination the caller
// sends to here. netd sheds a reply port's ⋆ once it has answered on it,
// except for a port registered with Listen, whose ⋆ it keeps for as long
// as the listener lives: a listener may name its notify port as the reply
// port of every exchange on the connections it was dealt.

// Listen asks netd to deliver new-connection notifications for lport to
// notify. The message grants netd ⋆ for the notify port so it can send
// there.
func Listen(netdPort *kernel.Port, lport uint16, notify handle.Handle) error {
	msg := wire.NewWriter(opListen).U16(lport).Handle(notify).Done()
	return netdPort.Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(notify)})
}

// Read requests up to maxLen bytes from a connection; netd replies on reply
// with OpReadReply (blocking server-side until data or EOF).
func Read(conn *kernel.Port, reply handle.Handle, maxLen int) error {
	e := ReadOp(reply, maxLen)
	return conn.Send(e.Data, e.Opts)
}

// Write sends data out on a connection; netd replies with OpWriteReply.
// With reply == handle.None the write is unacknowledged: nothing is
// granted and netd sends no reply. A caller that would discard the answer
// should not ask for it — messages on one connection port from one sender
// are processed in send order either way, so a Write is applied before any
// Read, Control or capability drop the caller issues after it.
func Write(conn *kernel.Port, reply handle.Handle, data []byte) error {
	e := WriteOp(reply, data)
	return conn.Send(e.Data, e.Opts)
}

// Control issues a control command (CtlClose) on a connection; netd
// replies with OpControlReply unless reply is handle.None (unacknowledged,
// as for Write).
func Control(conn *kernel.Port, reply handle.Handle, cmd byte) error {
	e := ControlOp(reply, cmd)
	return conn.Send(e.Data, e.Opts)
}

// ReadOp is Read as a batch entry. ReadOp, WriteOp and ControlOp serve a
// caller that sends several ops on one connection as one conn.SendBatch:
// netd applies them in entry order, exactly as the same calls made one by
// one.
func ReadOp(reply handle.Handle, maxLen int) kernel.BatchEntry {
	return kernel.BatchEntry{
		Data: wire.NewWriter(opRead).Handle(reply).U32(uint32(maxLen)).Done(),
		Opts: &kernel.SendOpts{DecontSend: kernel.Grant(reply)},
	}
}

// WriteOp is Write as a batch entry.
func WriteOp(reply handle.Handle, data []byte) kernel.BatchEntry {
	return kernel.BatchEntry{Data: wire.NewWriter(opWrite).Handle(reply).Bytes(data).Done(), Opts: replyGrant(reply)}
}

// ControlOp is Control as a batch entry.
func ControlOp(reply handle.Handle, cmd byte) kernel.BatchEntry {
	return kernel.BatchEntry{Data: wire.NewWriter(opControl).Handle(reply).Byte(cmd).Done(), Opts: replyGrant(reply)}
}

// replyGrant is the DS of a request that may be unacknowledged: reply ⋆,
// or nothing when there is no reply port.
func replyGrant(reply handle.Handle) *kernel.SendOpts {
	if reply == handle.None {
		return nil
	}
	return &kernel.SendOpts{DecontSend: kernel.Grant(reply)}
}

// AddTaint attaches a taint handle to a connection (paper §7.7): netd will
// contaminate all subsequent replies on this connection with taint 3 and
// raise the connection port's label so tainted writers can reach it. The
// message grants netd ⋆ for the taint handle (Figure 5 step 5: "ok-demux
// grants uT ⋆ to netd").
func AddTaint(conn *kernel.Port, reply handle.Handle, taint handle.Handle) error {
	msg := wire.NewWriter(opAddTaint).Handle(reply).Handle(taint).Done()
	return conn.Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(reply, taint)})
}

// NewConnNotification is a parsed OpNewConnNotify.
type NewConnNotification struct {
	ConnPort handle.Handle
	LPort    uint16
}

// ParseNotify decodes an OpNewConnNotify delivery; ok is false for other
// message types.
func ParseNotify(d *kernel.Delivery) (NewConnNotification, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpNewConnNotify {
		return NewConnNotification{}, false
	}
	n := NewConnNotification{ConnPort: r.Handle(), LPort: r.U16()}
	if r.Err() {
		return NewConnNotification{}, false
	}
	return n, true
}

// ReadReply is a parsed OpReadReply; Conn is the connection port it
// answers for.
type ReadReply struct {
	EOF  bool
	Data []byte
	Conn handle.Handle
}

// ParseReadReply decodes an OpReadReply delivery.
func ParseReadReply(d *kernel.Delivery) (ReadReply, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpReadReply {
		return ReadReply{}, false
	}
	rr := ReadReply{EOF: r.Byte() == 1, Data: r.Bytes(), Conn: r.Handle()}
	if r.Err() {
		return ReadReply{}, false
	}
	return rr, true
}

// ParseAddTaintReply decodes an OpAddTaintReply delivery, returning the
// connection port it answers for.
func ParseAddTaintReply(d *kernel.Delivery) (conn handle.Handle, ok bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpAddTaintReply {
		return handle.None, false
	}
	r.Byte() // ok: netd answers only a taint it applied
	conn = r.Handle()
	return conn, !r.Err()
}

// ParseWriteReply decodes an OpWriteReply delivery, returning bytes written.
func ParseWriteReply(d *kernel.Delivery) (int, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpWriteReply {
		return 0, false
	}
	n := int(r.U32())
	if r.Err() {
		return 0, false
	}
	return n, true
}
