// Package okws implements the Asbestos OK Web server (paper §7): a
// launcher, the trusted ok-demux connection router, and an event-process
// worker framework with per-user session state, database access through
// ok-dbproxy, and semi-trusted declassifier workers.
//
// The process architecture matches Figure 1, and connection handling
// follows the Figure 5 message flow step by step:
//
//  1. netd accepts u's TCP connection and wraps it in port uC.
//  2. netd notifies ok-demux, granting uC ⋆.
//  3. ok-demux reads and parses the HTTP request, then authenticates
//     u's credentials with idd.
//  4. idd grants ok-demux uT ⋆ and uG ⋆.
//  5. ok-demux grants uT ⋆ to netd, which taints the connection.
//  6. ok-demux forwards uC to the service's worker, granting uC ⋆ and
//     uG ⋆ while contaminating the worker with uT 3 (declassifier
//     workers get uT ⋆ instead).
//  7. The worker returns from checkpoint in a fresh event process W[u].
//  8. W[u] makes port uW, reads the request, replies over uC.
//  9. W[u] yields (sessions) or exits.
//
// # Shard ownership
//
// The trusted single-process services are sharded N ways (Config.Shards,
// default one loop per core): ok-demux, netd and ok-dbproxy each run N
// independent event loops on the shared internal/evloop runtime — each its
// own kernel process with exclusively owned state, no shared maps, no
// locks. The runtime owns the loop skeleton (mailbox burst drain bounded by
// evloop.BurstCap, Batcher flush, cross-shard forward ports with
// pre-exchanged ⋆ grants, delivery release, ctx-driven stop; see the evloop
// package doc for the ownership and Release rules); the services contribute
// only their dispatch handlers and tables. The ownership rules:
//
//   - USERS are owned by demux shard shard.Of(user, N). That shard holds
//     the user's session entries, its login-cache line, and
//     performs every handoff, so a session can never split across shards.
//     Workers register session ports with the owning shard directly; the
//     same hash routes their database queries to one ok-dbproxy replica.
//   - CONNECTIONS are owned twice: netd shard shard.OfU64(id, N) services
//     the socket, and whichever demux shard netd's round-robin notified
//     reads the headers. Once the user is parsed, a misrouted connection is
//     forwarded (opFwdConn, re-granting uC ⋆) to the owning demux shard.
//   - Worker REGISTRATION serializes through demux shard 0 (verification
//     handles, §7.1) and is broadcast to the other shards (opShardWorker).
//   - LOGINS are asynchronous per shard: pending logins match idd replies
//     by an echoed request token, so one slow idd round trip can no longer
//     stall a burst, a silently dropped message cannot misroute another
//     user's verdict, and concurrent identical credentials coalesce into
//     one idd round trip.
//
// The demux's session table and login cache are bounded LRUs
// (Config.SessionTableCap, Config.IDCacheCap), and the login cache is
// keyed by SHA-256(user\x00pass) — the demux retains no plaintext
// passwords. Bounding begets reclaim: a session evicted from the table
// sends its worker an opEvict so the orphaned event process is ep_exited
// rather than leaked.
//
// # Liveness
//
// IPC is unreliable (§4): any send may be dropped silently. Every demux
// wait on a message that can be lost therefore has exactly one clock, a
// per-key shard timer armed retryAfter past the newest send, and nothing
// waits on more traffic. A pending login with no verdict
// re-asks idd under a fresh token. A pinned session — a fresh user's start
// in flight, with later connections parked behind it — probes its oldest
// waiter to the same replica as a fresh start, or drops the pin if nobody
// waits. Config.RequestDeadline, when set, bounds each request on top, and
// every failure closes the connection at netd, so a lost message costs a
// retry or a clean error, never a stranded user or a leaked socket.
package okws

import (
	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/wire"
)

// Demux-facing ops.
const (
	opRegister = 40 // worker name, base port; V proves the verification handle
	opSession  = 41 // user, service, uW port (granted ⋆)
)

// Worker-facing ops.
const (
	opStart = 42 // user, uid, uC, uT, uG, deadline ms, every byte the demux has read
	opCont  = 43 // uC, deadline ms, every byte the demux has read
	opEvict = 46 // no payload: the demux evicted this session; ep_exit it
)

// Shard-internal ops (demux shard → demux shard, on the forward ports).
const (
	opFwdConn     = 44 // uC (granted ⋆), deadline ms, every byte the demux has read: user owned elsewhere
	opShardWorker = 45 // name, base port, flags byte: registration broadcast
)

// opShardWorker flag bits.
const (
	shardWorkerDeclassifier = 1 << 0
	shardWorkerEphemeral    = 1 << 1
)

// Environment names published by the launcher.
const (
	EnvDemuxReg     = "ok-demux-reg"
	EnvDemuxSession = "ok-demux-session"
)

// start is a parsed opStart. DeadlineMS is the request's remaining demux
// deadline in milliseconds (0 = none): the worker derives its handler
// context's deadline from it, so the whole request chain — parse, handler,
// dbproxy round trips — expires together rather than each layer inventing
// its own clock.
type start struct {
	User       string
	UID        string
	Conn       handle.Handle
	UT         handle.Handle
	UG         handle.Handle
	DeadlineMS uint32
	Buf        []byte
}

func encodeStart(s start) []byte {
	return wire.NewWriter(opStart).String(s.User).String(s.UID).
		Handle(s.Conn).Handle(s.UT).Handle(s.UG).U32(s.DeadlineMS).Bytes(s.Buf).Done()
}

func parseStart(d *kernel.Delivery) (start, bool) {
	op, r := wire.NewReader(d.Data)
	if op != opStart {
		return start{}, false
	}
	s := start{
		User: r.String(), UID: r.String(),
		Conn: r.Handle(), UT: r.Handle(), UG: r.Handle(),
		DeadlineMS: r.U32(),
		Buf:        r.Bytes(),
	}
	if r.Err() {
		return start{}, false
	}
	return s, true
}

type cont struct {
	Conn       handle.Handle
	DeadlineMS uint32
	Buf        []byte
}

func encodeCont(c cont) []byte {
	return wire.NewWriter(opCont).Handle(c.Conn).U32(c.DeadlineMS).Bytes(c.Buf).Done()
}

func parseCont(d *kernel.Delivery) (cont, bool) {
	op, r := wire.NewReader(d.Data)
	if op != opCont {
		return cont{}, false
	}
	c := cont{Conn: r.Handle(), DeadlineMS: r.U32(), Buf: r.Bytes()}
	if r.Err() {
		return cont{}, false
	}
	return c, true
}

func encodeEvict() []byte {
	return wire.NewWriter(opEvict).Done()
}

func parseEvict(d *kernel.Delivery) bool {
	op, _ := wire.NewReader(d.Data)
	return op == opEvict
}

func encodeRegister(name string, base handle.Handle) []byte {
	return wire.NewWriter(opRegister).String(name).Handle(base).Done()
}

func encodeFwdConn(conn handle.Handle, deadlineMS uint32, buf []byte) []byte {
	return wire.NewWriter(opFwdConn).Handle(conn).U32(deadlineMS).Bytes(buf).Done()
}

func encodeShardWorker(name string, base handle.Handle, declassifier, ephemeral bool) []byte {
	var b byte
	if declassifier {
		b |= shardWorkerDeclassifier
	}
	if ephemeral {
		b |= shardWorkerEphemeral
	}
	return wire.NewWriter(opShardWorker).String(name).Handle(base).Byte(b).Done()
}

func encodeSession(user, service string, port handle.Handle) []byte {
	return wire.NewWriter(opSession).String(user).String(service).Handle(port).Done()
}
