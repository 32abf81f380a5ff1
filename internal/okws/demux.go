package okws

import (
	"crypto/sha256"
	"time"

	"asbestos/internal/evloop"
	"asbestos/internal/handle"
	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/lru"
	"asbestos/internal/netd"
	"asbestos/internal/shard"
	"asbestos/internal/stats"
	"asbestos/internal/wire"
)

// Demux is the trusted ok-demux of the paper (§7.2–7.3) — the router that
// accepts each incoming connection from netd, parses the HTTP headers to
// pick a worker, authenticates the user with idd, taints the connection,
// and hands it off — sharded into N independent event loops on the shared
// internal/evloop runtime.
//
// Shard-ownership rules:
//
//   - Each shard is its own kernel process (an evloop.Shard) with its own
//     ports, and every piece of per-user and per-connection state (session
//     table, dealt table, connection table, login cache, round-robin
//     counters) is private to one shard's loop. No state is shared, so no
//     locking.
//   - A USER is owned by shard.Of(user, N): that shard authenticates the
//     user, holds the session entry, and performs every handoff — so a
//     session can never split across shards.
//   - A CONNECTION initially belongs to whichever shard netd's round-robin
//     dealt it to; that shard reads and parses the headers. If the parsed
//     user hashes elsewhere, the connection is forwarded (opFwdConn,
//     re-granting uC ⋆) to its owner before authentication.
//   - Worker registration is serialized through shard 0's registration
//     port; verified workers are broadcast (opShardWorker) to every shard's
//     forward port, so each shard routes from its own replica table.
//   - Logins are asynchronous: a shard never blocks its burst loop on idd.
//     In-flight logins are coalesced per credential pair and matched to
//     replies by an echoed request token on the shard's private
//     login-reply port, so a dropped message strands only its own login.
type Demux struct {
	sys    *kernel.System
	g      *evloop.Group
	shards []*demuxShard

	// reqDeadline bounds a request's whole demux-side life (read, login,
	// taint, handoff); 0 disables. sessionTTL bounds how long an idle
	// session entry pins its worker event process; 0 disables. Both ride
	// the shard wheels — an idle shard arms no standing tick for either.
	reqDeadline time.Duration
	sessionTTL  time.Duration

	// regPort (owned by shard 0's process) serializes worker registration.
	regPort *kernel.Port
}

// demuxShard is one event loop and the state it exclusively owns. The loop
// skeleton — mailbox drain, burst cap, Batcher flush, forward-port grants,
// ctx-driven stop — lives in lp; the demux contributes the dispatch
// handlers and tables.
type demuxShard struct {
	dm  *Demux
	idx int
	lp  *evloop.Shard

	proc *kernel.Process // lp's process

	notifyPort  *kernel.Port // new connections from netd (this shard's deal)
	sessionPort *kernel.Port // session-port registration from worker EPs
	loginReply  *kernel.Port // replies from idd

	netdSvc   *kernel.Port   // netd's service port, route cached
	iddLogins []*kernel.Port // idd's login ports, indexed by idd shard

	// verif holds the launcher-issued verification handles per worker name
	// (one per replica); registration AND session-registration messages
	// must prove one of them at level 0 (§7.1) — an unverified session
	// registration would let any process that learns the session-port
	// handle hijack a user's request routing. Replicated to every shard by
	// expectWorker (launch-time only).
	verif map[string][]handle.Handle

	// workers maps a service to the base ports of its registered replicas;
	// declassifier marks §7.6 workers and ephemeral marks services whose
	// event processes exit per request (their sessions never register, so
	// the demux deals every connection fresh). Replicated to every shard by
	// the opShardWorker broadcast.
	workers      map[string][]handle.Handle
	declassifier map[string]bool
	ephemeral    map[string]bool

	// sessions maps (user, service) to the session's event-process port;
	// established sessions stay pinned to it. dealt records which replica a
	// fresh user was dealt to until the worker registers the session port,
	// so two quick connections from a new user cannot land on different
	// replicas. rr advances only when a genuinely fresh user is dealt.
	// All three are per-shard: a user's entries live only in the owning
	// shard. sessions and dealt are bounded (LRU): evicting a session is
	// safe (a routing cache — the user merely re-deals), while evicting a
	// dealt pin settles its parked queue first (see the lru.NewEvict hook),
	// since every dealt entry is an in-flight registration by definition.
	sessions *lru.Cache[sessionKey, handle.Handle]
	dealt    *lru.Cache[sessionKey, handle.Handle]
	rr       map[string]uint64

	// sessTimers holds each live session's TTL timer (only when the demux
	// has a sessionTTL). A handoff touching the session re-arms its timer;
	// expiry evicts the entry and reclaims the worker's event process, so
	// an abandoned session costs a bounded amount of worker memory.
	sessTimers map[sessionKey]*evloop.Timer

	// parked holds connections that arrived for a dealt-but-unregistered
	// session: handing each a fresh opStart would split the session over
	// several event processes, so they wait for the worker's session-port
	// registration and then ride the pinned continuation path.
	parked map[sessionKey]*parkedSet

	conns *connTable // per-connection reply port → state

	// idCache memoizes login results per credential pair, keyed by the
	// SHA-256 of user\x00pass — the demux never retains plaintext passwords
	// — and bounded so credential stuffing cannot grow it without limit.
	idCache *lru.Cache[credKey, idd.Identity]

	// pendingLogins coalesces in-flight idd round-trips per credential pair;
	// pendingByTok matches them to replies by the echoed request token
	// (loginTok, unique per shard since each shard has its own loginReply
	// port). Token matching — not arrival order — means a request or reply
	// silently dropped under queue pressure parks only its own waiters; it
	// can never shift a later user's verdict (and identity grants!) onto a
	// different credential pair, and never stalls the shard.
	pendingLogins map[credKey]*pendingLogin
	pendingByTok  map[uint64]*pendingLogin
	loginTok      uint64

	// out is lp's Batcher, coalescing worker handoffs and cross-shard
	// forwards: the loop dispatches a burst of deliveries, buffering the
	// resulting messages per destination port, then flushes each port with
	// one SendBatch. Per-connection privileges are shed via out.DropAfter —
	// only after the flush, since a buffered handoff still needs its uC ⋆
	// at enqueue time.
	out *kernel.Batcher
}

// credKey is the hashed credential-cache key.
type credKey [sha256.Size]byte

func credKeyOf(user, pass string) credKey {
	// Sum256 over one appended buffer: no per-connection hash-state
	// allocation on the authentication fast path.
	buf := make([]byte, 0, len(user)+1+len(pass))
	buf = append(buf, user...)
	buf = append(buf, 0)
	buf = append(buf, pass...)
	return sha256.Sum256(buf)
}

// parkedSet tracks one dealt-but-unregistered session's queue: the waiting
// connections plus a count of every arrival since the pin (including the
// ones sent as probes, which do not wait) — the probe cadence and the
// flood cap key off arrivals and queue length respectively, so neither can
// starve the other.
type parkedSet struct {
	waiters  []*dconn
	arrivals int
}

// pendingLogin is one in-flight idd round trip and the connections whose
// fate it decides. toks lists every token issued for it — the original
// request plus any re-issues (sends are unreliable, so the login is
// re-asked both every redealAfter-th coalesced arrival AND once
// loginDeadline passes with no verdict); the first reply matching any of
// them settles the set. arrivals counts every connection that coalesced
// here, pacing the arrival re-issues; lastIssue is the wall clock of the
// newest request, bounding how long a quiet credential pair whose only
// request was dropped can wait; waiters is capped at maxParkedPerSession
// like the parked-session queue.
type pendingLogin struct {
	key       credKey
	toks      []uint64
	waiters   []*dconn
	arrivals  int
	lastIssue time.Time

	// timer fires at lastIssue+loginDeadline and re-issues the login under
	// a fresh token (loginExpired); the settling reply stops it. Per-key
	// timers on the shard wheel replaced the old standing tick: a shard
	// with no pending login arms nothing.
	timer *evloop.Timer
}

// loginDeadline is the wall-clock bound on a pending login: a pending set
// whose newest idd request is older than this is re-issued under a fresh
// token by the shard's timer tick. Arrival-paced re-issues (every
// redealAfter-th coalesced connection) already bound busy credential
// pairs; the deadline bounds the QUIET pair whose only request — or its
// reply — was silently dropped and for which no further arrivals would
// ever trigger a retry.
const loginDeadline = 100 * time.Millisecond

// maxParkedPerSession bounds connections waiting for one in-flight session
// registration; a flood beyond it is refused with 503 instead of holding
// demux memory. redealAfter is the lost-registration escape hatch: every
// redealAfter-th arrival for the pinned key is sent to the pinned replica
// as a fresh start instead of parking, so a silently dropped
// start/registration can strand at most a bounded prefix of a user's
// connections, never the user.
// The demux cannot distinguish a lost registration from a merely slow one,
// so a probe MAY duplicate the session's event process (same replica; the
// newer registration wins and parked connections drain to it) — liveness
// over strict EP uniqueness. redealAfter therefore sits above the loop's
// dispatch-burst cap (evloop.BurstCap): a registration already queued
// behind one full burst is still processed before the queue can reach the
// probe threshold.
const (
	maxParkedPerSession = 256
	redealAfter         = 2 * evloop.BurstCap
)

// DefaultSessionCap and DefaultIDCacheCap bound the demux's two
// attacker-growable tables when Config leaves the knobs zero. Both are
// split across shards.
const (
	DefaultSessionCap = 1 << 16
	DefaultIDCacheCap = 1 << 14
)

type sessionKey struct {
	user    string
	service string
}

// dconn is per-connection demux state while the request headers are read.
// uC is the connection port as a cached endpoint: the demux's repeated
// reads and the taint exchange reuse the resolved route.
type dconn struct {
	uC    *kernel.Port
	reply handle.Handle
	buf   []byte
	raw   []byte // the parsed request's wire bytes, forwarded on handoff
	taint bool   // AddTaint acknowledged
	req   *httpmsg.Request
	id    idd.Identity

	// deadline is the request's demux-side deadline timer (nil when the
	// demux has no reqDeadline); expiry 504s and tears the connection down
	// wherever it is parked. failing suppresses a second error write when
	// expiry races an in-flight fail().
	deadline *evloop.Timer
	failing  bool
}

// newDemux wires a sharded demux against existing netd and idd service
// ports; the launcher then registers workers' verification handles directly.
// sessionCap and idCacheCap bound the per-demux tables (0 = defaults);
// reqDeadline and sessionTTL are the per-request and per-session lifecycle
// bounds (0 = none).
func newDemux(sys *kernel.System, netdSvc handle.Handle, iddLogins []handle.Handle,
	shards, sessionCap, idCacheCap int, reqDeadline, sessionTTL time.Duration) *Demux {
	if sessionCap <= 0 {
		sessionCap = DefaultSessionCap
	}
	if idCacheCap <= 0 {
		idCacheCap = DefaultIDCacheCap
	}

	// The runtime owns the loop skeleton: shard processes, forward ports
	// with ⋆ grants for every ordered pair (a sibling's opFwdConn or
	// opShardWorker to a capability-closed port would be silently dropped),
	// the burst drain, Batcher flush, the login-deadline timer, and stop.
	g := evloop.New(sys, evloop.Config{
		Name:     "ok-demux",
		Shards:   shards,
		Category: stats.CatOKWS,
	})
	shards = g.Shards()
	perShard := func(total int) int {
		n := total / shards
		if n < 1 {
			n = 1
		}
		return n
	}

	d := &Demux{sys: sys, g: g, reqDeadline: reqDeadline, sessionTTL: sessionTTL}
	open := label.Empty(label.L3)
	for i := 0; i < shards; i++ {
		lp := g.Shard(i)
		proc := lp.Proc()
		notify := proc.Open(nil)
		notify.SetLabel(open)
		sess := proc.Open(nil)
		sess.SetLabel(open)
		s := &demuxShard{
			dm:            d,
			idx:           i,
			lp:            lp,
			proc:          proc,
			notifyPort:    notify,
			sessionPort:   sess,
			loginReply:    proc.Open(nil),
			netdSvc:       proc.Port(netdSvc),
			iddLogins:     iddPorts(proc, iddLogins),
			workers:       make(map[string][]handle.Handle),
			declassifier:  make(map[string]bool),
			ephemeral:     make(map[string]bool),
			parked:        make(map[sessionKey]*parkedSet),
			rr:            make(map[string]uint64),
			sessTimers:    make(map[sessionKey]*evloop.Timer),
			conns:         newConnTable(),
			idCache:       lru.New[credKey, idd.Identity](perShard(idCacheCap)),
			pendingLogins: make(map[credKey]*pendingLogin),
			pendingByTok:  make(map[uint64]*pendingLogin),
			out:           lp.Out(),
		}
		// A session entry is a routing cache, so evicting one is safe for
		// the DEMUX — but the worker still holds the session's event
		// process, which nothing would ever reclaim. Tell the worker to
		// ep_exit the orphan (ROADMAP: eviction → ep_exit) and retire the
		// TTL timer with the entry.
		s.sessions = lru.NewEvict(perShard(sessionCap), func(key sessionKey, port handle.Handle) {
			s.stopSessTTL(key)
			s.evictSession(port)
		})
		// Every dealt entry is an IN-FLIGHT pin (registration deletes it),
		// so capacity eviction must settle the evicted key's parked queue:
		// stranding those connections — or letting the user's next arrival
		// re-deal to a different replica while waiters drain to the first —
		// is exactly the split this table exists to prevent. The evicted
		// user transiently may end up with a duplicate event process
		// (whichever session registers last wins), which only occurs past
		// perShard(sessionCap) concurrent unregistered users.
		s.dealt = lru.NewEvict(perShard(sessionCap), func(key sessionKey, _ handle.Handle) {
			s.dropParked(key)
		})
		s.verif = make(map[string][]handle.Handle)
		if i == 0 {
			reg := proc.Open(nil)
			reg.SetLabel(open)
			d.regPort = reg
			lp.Handle(reg, s.handleRegister)
		}
		lp.Handle(notify, s.handleNotify)
		lp.Handle(sess, s.handleSession)
		lp.Handle(s.loginReply, s.handleLoginReply)
		lp.HandleForward(s.handleFwd)
		lp.HandleDefault(s.handleConnPort)
		d.shards = append(d.shards, s)
	}
	sys.SetEnv(EnvDemuxReg, d.regPort.Handle())
	sys.SetEnv(EnvDemuxSession, d.shards[0].sessionPort.Handle())
	return d
}

// Process exposes shard 0's kernel process for label inspection.
func (dm *Demux) Process() *kernel.Process { return dm.shards[0].proc }

// ShardCount reports the number of independent event loops.
func (dm *Demux) ShardCount() int { return len(dm.shards) }

// sessionPorts returns each shard's session-registration port, indexed by
// shard; workers register user u's session with sessionPorts[shard.Of(u, N)].
func (dm *Demux) sessionPorts() []handle.Handle {
	out := make([]handle.Handle, len(dm.shards))
	for i, s := range dm.shards {
		out[i] = s.sessionPort.Handle()
	}
	return out
}

// listen registers every shard's notify port with netd for HTTP connections
// on lport; netd deals new connections across them round-robin.
func (dm *Demux) listen(lport uint16) error {
	for _, s := range dm.shards {
		if err := netd.Listen(s.netdSvc, lport, s.notifyPort.Handle()); err != nil {
			return err
		}
	}
	return nil
}

// expectWorker tells the demux a worker named name will register, proving
// verification handle v at level 0; declassifier marks §7.6 workers and
// ephemeral marks per-request services. Called once per replica, each with
// its own launcher-issued handle.
func (dm *Demux) expectWorker(name string, v handle.Handle, declassifier, ephemeral bool) {
	for _, s := range dm.shards {
		s.verif[name] = append(s.verif[name], v)
		s.declassifier[name] = declassifier
		s.ephemeral[name] = ephemeral
	}
}

// registeredWorkers counts worker replicas that have completed registration
// (shard 0's table; it sees every registration first).
func (dm *Demux) registeredWorkers() int {
	n := 0
	for _, ports := range dm.shards[0].workers {
		n += len(ports)
	}
	return n
}

// Run runs every shard's event loop on the evloop runtime: each loop
// dispatches deliveries in bursts, so the handoffs a burst
// generates coalesce into one SendBatch per destination worker (flush)
// instead of one syscall each.
func (dm *Demux) Run() { dm.g.Run() }

// Stop shuts the demux down: context first (ends Run), then kernel state.
func (dm *Demux) Stop() { dm.g.Stop() }

// dispatch routes one delivery through the shard's evloop table —
// launch-time registration draining and tests use it; at runtime the loop
// goroutine dispatches directly.
func (s *demuxShard) dispatch(d *kernel.Delivery) { s.lp.Dispatch(d) }

// handleConnPort is the shard's fallback handler: deliveries to
// per-connection reply ports, which come and go too fast for the dispatch
// table.
func (s *demuxShard) handleConnPort(d *kernel.Delivery) {
	if cs := s.conns.get(d.Port); cs != nil {
		s.handleConnReply(cs, d)
	}
}

// handleRegister records a worker's base port after checking the
// launcher-issued verification handle: "ok-demux must be certain that it is
// communicating with the worker processes that the launcher started" (§7.1).
// It runs on shard 0 and broadcasts the verified entry to every shard.
func (s *demuxShard) handleRegister(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	if op != opRegister {
		return
	}
	name := r.String()
	base := r.Handle()
	if r.Err() {
		return
	}
	proved := false
	for _, v := range s.verif[name] {
		if d.V.Get(v) <= label.L0 {
			proved = true
			break
		}
	}
	if !proved {
		return // unknown worker or failed proof: ignore
	}
	for _, b := range s.workers[name] {
		if b == base {
			return // duplicate registration
		}
	}
	s.workers[name] = append(s.workers[name], base)
	// Replicate to the sibling shards' tables via their forward ports. The
	// queue push order guarantees any connection notified later sees the
	// worker: broadcasts precede the listen that makes traffic possible at
	// launch, and at runtime a shard routing for this worker simply has not
	// processed the broadcast yet — identical to the worker not having
	// registered.
	for _, sib := range s.dm.shards[1:] {
		s.lp.Peer(sib.idx).Send(
			encodeShardWorker(name, base, s.declassifier[name], s.ephemeral[name]), nil)
	}
}

// handleSession records a worker event process's session port (§7.3). The
// worker sent it to the shard owning the user, so the entry lands exactly
// where handoffs for that user are decided.
func (s *demuxShard) handleSession(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	if op != opSession {
		return
	}
	user := r.String()
	service := r.String()
	port := r.Handle()
	if r.Err() {
		return
	}
	// Like opRegister, the sender must prove a launcher-issued verification
	// handle for this service at level 0: the event process inherits the
	// worker's grant at checkpoint. Without this, anyone could register a
	// port of their own as user u's session and receive u's connections —
	// capabilities and raw credentials included.
	proved := false
	for _, v := range s.verif[service] {
		if d.V.Get(v) <= label.L0 {
			proved = true
			break
		}
	}
	if !proved {
		return
	}
	key := sessionKey{user, service}
	if old, ok := s.sessions.Get(key); ok && old != port {
		// A re-registration superseding an earlier session (the probe
		// escape hatch can duplicate an EP; the newer registration wins):
		// reclaim the loser's event process just like an LRU eviction.
		s.evictSession(old)
	}
	s.sessions.Put(key, port)
	s.touchSessTTL(key)
	s.dealt.Delete(key) // the provisional pin graduated to a real session
	// Connections that raced the registration ride the pinned path now —
	// handing them fresh starts would have split the session across event
	// processes. Waiters whose request deadline already tore them down are
	// skipped: their uC ⋆ is gone, and batching a grant for it would
	// poison the whole flush (a batch is rejected atomically).
	ps := s.parked[key]
	delete(s.parked, key)
	if ps == nil {
		return
	}
	for _, cs := range ps.waiters {
		if !s.live(cs) {
			continue
		}
		s.out.Add(port, encodeCont(cont{Conn: cs.uC.Handle(), DeadlineMS: cs.remainingMS(), Buf: cs.raw}),
			&kernel.SendOpts{DecontSend: kernel.Grant(cs.uC.Handle())})
		s.release(cs)
	}
}

// handleFwd processes shard-internal traffic: worker-table broadcasts from
// shard 0 and connections forwarded by the shard that read their headers.
func (s *demuxShard) handleFwd(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	switch op {
	case opShardWorker:
		name := r.String()
		base := r.Handle()
		flags := r.Byte()
		if r.Err() {
			return
		}
		for _, b := range s.workers[name] {
			if b == base {
				return
			}
		}
		s.workers[name] = append(s.workers[name], base)
		s.declassifier[name] = flags&shardWorkerDeclassifier != 0
		s.ephemeral[name] = flags&shardWorkerEphemeral != 0
	case opFwdConn:
		conn := r.Handle()
		buf := r.Bytes()
		if r.Err() {
			return
		}
		reply := s.proc.Open(nil).Handle()
		cs := &dconn{uC: s.proc.Port(conn), reply: reply, buf: buf}
		s.conns.put(reply, cs)
		// The forwarder released its dconn (and deadline) on forward; the
		// owner restarts the clock, so a forwarded request gets at most
		// 2×reqDeadline — bounded either way.
		s.armDeadline(cs)
		req, n, complete, err := httpmsg.ParseRequest(buf)
		if err != nil || !complete {
			// The forwarder only forwards parsed requests; anything else is
			// a stale or corrupt handoff.
			s.fail(cs, 400)
			return
		}
		cs.req = req
		cs.raw = buf[:n]
		s.authenticate(cs)
	}
}

// handleNotify starts reading a new connection's request.
func (s *demuxShard) handleNotify(d *kernel.Delivery) {
	n, ok := netd.ParseNotify(d)
	if !ok {
		return
	}
	reply := s.proc.Open(nil).Handle()
	cs := &dconn{uC: s.proc.Port(n.ConnPort), reply: reply}
	s.conns.put(reply, cs)
	s.armDeadline(cs)
	netd.Read(cs.uC, reply, 4096)
}

// handleConnReply advances a connection's state machine: reading headers,
// then tainting, then handoff.
func (s *demuxShard) handleConnReply(cs *dconn, d *kernel.Delivery) {
	if rr, ok := netd.ParseReadReply(d); ok {
		if cs.req == nil {
			cs.buf = append(cs.buf, rr.Data...)
			req, n, complete, err := httpmsg.ParseRequest(cs.buf)
			switch {
			case err != nil:
				s.fail(cs, 400)
			case complete:
				cs.req = req
				cs.raw = cs.buf[:n]
				s.route(cs)
			case rr.EOF:
				s.drop(cs)
			default:
				netd.Read(cs.uC, cs.reply, 4096)
			}
		}
		return
	}
	if len(d.Data) == 0 {
		// A zero-length delivery carries no op byte; reading d.Data[0]
		// blind was a remotely-triggerable panic in the trusted demux
		// (anyone holding the reply capability can send an empty message).
		// The other servers' dispatchers are immune: they parse via
		// wire.NewReader, which rejects empty payloads.
		return
	}
	if d.Data[0] == netd.OpAddTaintReply {
		cs.taint = true
		s.handoff(cs)
		return
	}
	if d.Data[0] == netd.OpControlReply {
		// Completion of an error response (fail); tear down.
		s.drop(cs)
	}
}

// route sends a parsed connection to the shard owning its user; the local
// shard keeps it only if it is the owner.
func (s *demuxShard) route(cs *dconn) {
	user, _, ok := cs.req.User()
	if !ok {
		s.fail(cs, 401)
		return
	}
	owner := shard.Of(user, len(s.dm.shards))
	if owner == s.idx {
		s.authenticate(cs)
		return
	}
	// Forward the raw request bytes and the connection capability; the
	// owner re-parses and authenticates. Buffered in the batcher so a burst
	// of misrouted connections leaves as one SendBatch per sibling; uC ⋆ is
	// shed only after the flush (the buffered grant needs it).
	s.out.Add(s.lp.Peer(owner).Handle(), encodeFwdConn(cs.uC.Handle(), cs.raw),
		&kernel.SendOpts{DecontSend: kernel.Grant(cs.uC.Handle())})
	s.release(cs)
}

// iddPorts caches a shard process's route to every idd login port.
func iddPorts(proc *kernel.Process, hs []handle.Handle) []*kernel.Port {
	out := make([]*kernel.Port, len(hs))
	for i, h := range hs {
		out[i] = proc.Port(h)
	}
	return out
}

// iddPort routes a username's login to the idd shard that owns it, so the
// request skips the replica-forward hop inside idd.
func (s *demuxShard) iddPort(user string) *kernel.Port {
	return s.iddLogins[idd.ShardFor(user, len(s.iddLogins))]
}

// authenticate runs Figure 5 steps 3–5 asynchronously: look up credentials
// with idd (never blocking the shard's burst loop on the round trip), then
// taint the connection at netd. Connections racing the same credential pair
// coalesce onto one in-flight login.
func (s *demuxShard) authenticate(cs *dconn) {
	user, pass, ok := cs.req.User()
	if !ok {
		s.fail(cs, 401)
		return
	}
	key := credKeyOf(user, pass)
	if id, ok := s.idCache.Get(key); ok {
		cs.id = id
		s.taint(cs)
		return
	}
	if pl := s.pendingLogins[key]; pl != nil {
		pl.arrivals++
		if pl.arrivals%redealAfter == 0 {
			// The outstanding request (or its reply) may have been silently
			// dropped; re-ask idd under a fresh token so the credential
			// pair cannot stay wedged forever. A late duplicate reply is
			// harmless: the first match settles the set, the rest find no
			// pending token.
			s.reissueLogin(time.Now(), pl, user, pass)
		}
		if len(pl.waiters) >= maxParkedPerSession {
			s.fail(cs, 503)
			return
		}
		pl.waiters = append(pl.waiters, cs)
		return
	}
	s.loginTok++
	if err := idd.Login(s.iddPort(user), s.loginTok, user, pass, s.loginReply.Handle()); err != nil {
		s.fail(cs, 500)
		return
	}
	pl := &pendingLogin{key: key, toks: []uint64{s.loginTok},
		waiters: []*dconn{cs}, arrivals: 1, lastIssue: time.Now()}
	s.pendingLogins[key] = pl
	s.pendingByTok[s.loginTok] = pl
	// Arm the per-key deadline: it must fire even if no further connection
	// ever arrives for this credential pair.
	pl.timer = s.lp.Timer(func(now time.Time) { s.loginExpired(now, pl) })
	pl.timer.Arm(pl.lastIssue.Add(loginDeadline))
}

// reissueLogin asks idd again for an in-flight login under a fresh token.
// Called on both retry paths — every redealAfter-th coalesced arrival and
// the per-key loginDeadline timer.
func (s *demuxShard) reissueLogin(now time.Time, pl *pendingLogin, user, pass string) {
	s.loginTok++
	pl.lastIssue = now
	// Push the wall-clock deadline out behind the newest request; if this
	// re-issue (or its reply) is dropped too, the timer retries again.
	pl.timer.Arm(pl.lastIssue.Add(loginDeadline))
	if idd.Login(s.iddPort(user), s.loginTok, user, pass, s.loginReply.Handle()) != nil {
		return
	}
	pl.toks = append(pl.toks, s.loginTok)
	s.pendingByTok[s.loginTok] = pl
	// Keep only the newest few tokens live: under sustained reply loss the
	// re-issues must not grow pendingByTok without bound (a reply to a
	// retired token is then ignored, exactly like any other stray).
	const maxLiveTokens = 8
	if len(pl.toks) > maxLiveTokens {
		delete(s.pendingByTok, pl.toks[0])
		pl.toks = pl.toks[1:]
	}
}

// loginExpired is a pending login's deadline handler: the newest idd
// request for this credential pair aged past loginDeadline with no
// verdict, so it is re-asked under a fresh token — a request or reply
// silently dropped for a QUIET credential pair is recovered on the wall
// clock rather than on the user's patience (ROADMAP: login-drop deadline).
// The waiters hold the parsed request — credentials included — so no
// plaintext is retained beyond what the in-flight connections already pin.
// If every waiter has since died to its own request deadline there is
// nobody left to answer; the pending entry is retired instead of retried
// forever.
func (s *demuxShard) loginExpired(now time.Time, pl *pendingLogin) {
	if s.pendingLogins[pl.key] != pl {
		return // settled while the expiry was in flight
	}
	for _, cs := range pl.waiters {
		if !s.live(cs) {
			continue
		}
		if user, pass, ok := cs.req.User(); ok {
			// Re-arm relative to the wheel's notion of now (the fire time),
			// not the wall clock: the two agree in a running loop, and tests
			// that advance the wheel synthetically must not see the re-armed
			// deadline land behind the cursor and re-fire in the same sweep.
			s.reissueLogin(now, pl, user, pass)
			return
		}
	}
	s.retireLogin(pl)
}

// retireLogin forgets a pending login: token index, key entry, timer.
func (s *demuxShard) retireLogin(pl *pendingLogin) {
	for _, t := range pl.toks {
		delete(s.pendingByTok, t)
	}
	delete(s.pendingLogins, pl.key)
	pl.timer.Stop()
}

// handleLoginReply resolves the in-flight login the reply's echoed token
// names with idd's verdict. Every exit path settles every waiting
// connection — a failed or garbled login 401s and tears the connection
// down rather than leaking its dconn (and the uC/reply capabilities) in
// s.conns forever. A token matching nothing (stray, duplicate, or garbled
// reply) is ignored; it cannot touch another login's waiters.
func (s *demuxShard) handleLoginReply(d *kernel.Delivery) {
	id, tok, ok := idd.ParseLoginReply(d)
	pl := s.pendingByTok[tok]
	if pl == nil {
		return
	}
	s.retireLogin(pl)
	if ok {
		s.idCache.Put(pl.key, id)
	}
	for _, cs := range pl.waiters {
		if !s.live(cs) {
			continue // torn down by its request deadline while waiting
		}
		if !ok {
			s.fail(cs, 401)
			continue
		}
		cs.id = id
		s.taint(cs)
	}
}

func (s *demuxShard) taint(cs *dconn) {
	netd.AddTaint(cs.uC, cs.reply, cs.id.UT)
	// Handoff continues when the AddTaint acknowledgment arrives.
}

// handoff runs Figure 5 step 6: forward uC to the responsible worker. With
// replicated workers, a fresh user is dealt to the next replica round-robin
// and pinned there (dealt) until the worker registers the session port;
// follow-up connections go straight to the session's event process. The
// handoff message is buffered in the batcher, so a burst of connections to
// the same worker leaves the demux as one SendBatch.
func (s *demuxShard) handoff(cs *dconn) {
	service := cs.req.Service()
	replicas := s.workers[service]
	if len(replicas) == 0 {
		s.release(cs)
		s.failDirect(cs, 404)
		return
	}
	// Forward the request's original wire bytes: re-serializing the parsed
	// form costs an allocation chain per connection and the worker re-parses
	// either way.
	raw := cs.raw
	user, _, _ := cs.req.User()
	key := sessionKey{user, service}
	nextReplica := func() handle.Handle {
		// Stagger each shard's rotation by its index so N shards' first
		// deals spread over N replicas instead of all starting at replica 0.
		base := replicas[(s.rr[service]+uint64(s.idx))%uint64(len(replicas))]
		s.rr[service]++
		return base
	}
	var base handle.Handle
	switch {
	case s.ephemeral[service]:
		// Per-request service: no session will ever register, every
		// connection is fresh, and the rotation advances per connection.
		base = nextReplica()
	default:
		if port, ok := s.sessions.Get(key); ok {
			// Existing session: forward straight to the event process W[u],
			// and push its idle TTL out — the session just proved useful.
			s.touchSessTTL(key)
			s.out.Add(port, encodeCont(cont{Conn: cs.uC.Handle(), DeadlineMS: cs.remainingMS(), Buf: raw}),
				&kernel.SendOpts{DecontSend: kernel.Grant(cs.uC.Handle())})
			s.release(cs)
			return
		}
		if pinned, dealtAlready := s.dealt.Get(key); dealtAlready {
			// A start for this user is already in flight: a second fresh
			// start would create a second event process — the session
			// EP-split the stress test forbids. Park until the worker
			// registers the session port (handleSession drains us); bound
			// the queue so a flood cannot hold connections without limit.
			ps := s.parked[key]
			if ps == nil {
				ps = &parkedSet{}
				s.parked[key] = ps
			}
			ps.arrivals++
			switch {
			case ps.arrivals%redealAfter == 0:
				// Sends are unreliable (§4): if the original start or its
				// session registration was dropped, nothing would ever
				// drain this queue. Every redealAfter-th arrival probes the
				// SAME pinned replica with a fresh start instead of
				// parking; its registration (re-)creates the session and
				// drains everyone. Never reached on the fast path —
				// registration normally lands within a couple of
				// connections.
				base = pinned
			case len(ps.waiters) >= maxParkedPerSession:
				s.release(cs)
				s.failDirect(cs, 503)
				return
			default:
				ps.waiters = append(ps.waiters, cs)
				return
			}
		} else {
			// Genuinely fresh user: deal to the next replica and pin until
			// the session registers, so pinned-session traffic cannot skew
			// the rotation and a burst of first connections cannot split
			// replicas.
			base = nextReplica()
			s.dealt.Put(key, base)
		}
	}
	defer s.release(cs)
	opts := &kernel.SendOpts{
		//asbestos:keepstar session handoff: the worker keeps the uG ⋆ for the session's lifetime to prove the user's identity downstream; the demux re-grants per request
		DecontSend: kernel.Grant(cs.uC.Handle(), cs.id.UG),
		DecontRecv: kernel.AllowRecv(label.L3, cs.id.UT),
	}
	if s.declassifier[service] {
		// §7.6: declassifiers get uT ⋆ instead of contamination.
		//asbestos:keepstar declassifiers hold uT ⋆ (not taint) for as long as they serve the user — that is what makes them declassifiers
		opts.DecontSend = kernel.Grant(cs.uC.Handle(), cs.id.UG, cs.id.UT)
	} else {
		opts.Contaminate = kernel.Taint(label.L3, cs.id.UT)
	}
	msg := encodeStart(start{
		User:       user,
		UID:        cs.id.UID,
		Conn:       cs.uC.Handle(),
		UT:         cs.id.UT,
		UG:         cs.id.UG,
		DeadlineMS: cs.remainingMS(),
		Buf:        raw,
	})
	s.out.Add(base, msg, opts)
}

// evictSession reclaims the worker-side event process behind a session
// entry the demux is dropping (LRU capacity eviction, or a superseding
// re-registration): it sends opEvict to the session port so the worker
// ep_exits the orphan, then sheds the uW ⋆ the registration granted.
// Both go through the batcher — an eviction can race handoffs to the same
// port buffered earlier in the burst, and bypassing them would reorder the
// eviction ahead of a still-legal continuation. Only the demux (and the
// event process itself) hold uW ⋆, so nobody else can forge the exit.
func (s *demuxShard) evictSession(port handle.Handle) {
	s.out.Add(port, encodeEvict(), nil)
	s.out.DropAfter(port)
}

// dropParked refuses (503) every connection parked on key — called when
// the key's dealt pin is evicted, since nothing will drain them afterwards.
func (s *demuxShard) dropParked(key sessionKey) {
	ps := s.parked[key]
	delete(s.parked, key)
	if ps == nil {
		return
	}
	for _, cs := range ps.waiters {
		if !s.live(cs) {
			continue
		}
		s.release(cs)
		s.failDirect(cs, 503)
	}
}

// live reports whether cs is still the tracked state for its reply port.
// Parked references — pendingLogin waiters, parked sets — outlive a
// torn-down connection, so every drain checks before touching one.
func (s *demuxShard) live(cs *dconn) bool { return s.conns.get(cs.reply) == cs }

// armDeadline starts cs's request-deadline clock (no-op when the demux has
// none configured).
func (s *demuxShard) armDeadline(cs *dconn) {
	if s.dm.reqDeadline <= 0 {
		return
	}
	cs.deadline = s.lp.Timer(func(time.Time) { s.deadlineExpired(cs) })
	cs.deadline.Arm(time.Now().Add(s.dm.reqDeadline))
}

// remainingMS reports cs's remaining deadline in whole milliseconds
// (minimum 1 while armed; 0 = no deadline) — the form the handoff wire
// format carries so the worker's handler context inherits the same clock.
func (cs *dconn) remainingMS() uint32 {
	if cs.deadline == nil || !cs.deadline.Armed() {
		return 0
	}
	ms := time.Until(cs.deadline.When()) / time.Millisecond
	if ms < 1 {
		ms = 1
	}
	if ms > 1<<30 {
		ms = 1 << 30
	}
	return uint32(ms)
}

// deadlineExpired tears down a request that outlived the demux deadline:
// 504 and close straight to netd, then forget the connection. References
// parked elsewhere find the corpse via live() and skip it.
func (s *demuxShard) deadlineExpired(cs *dconn) {
	if !s.live(cs) || cs.failing {
		return
	}
	cs.failing = true
	netd.Write(cs.uC, handle.None, httpmsg.FormatResponse(504, nil, nil))
	netd.Control(cs.uC, handle.None, netd.CtlClose)
	s.drop(cs)
}

// touchSessTTL (re-)arms key's session TTL timer; a handoff or fresh
// registration resets the idle clock.
func (s *demuxShard) touchSessTTL(key sessionKey) {
	if s.dm.sessionTTL <= 0 {
		return
	}
	t := s.sessTimers[key]
	if t == nil {
		t = s.lp.Timer(func(time.Time) { s.sessionExpired(key) })
		s.sessTimers[key] = t
	}
	t.Arm(time.Now().Add(s.dm.sessionTTL))
}

// stopSessTTL retires key's TTL timer (entry evicted or superseded).
func (s *demuxShard) stopSessTTL(key sessionKey) {
	if t := s.sessTimers[key]; t != nil {
		t.Stop()
		delete(s.sessTimers, key)
	}
}

// sessionExpired retires an idle session proactively: drop the routing
// entry and reclaim the worker's event process, exactly like a capacity
// eviction but on the idle clock instead of under table pressure.
// lru.Delete fires no evict hook, so the reclaim is explicit here.
func (s *demuxShard) sessionExpired(key sessionKey) {
	delete(s.sessTimers, key)
	if port, ok := s.sessions.Peek(key); ok {
		s.sessions.Delete(key)
		s.evictSession(port)
	}
}

// release forgets the per-connection state and schedules the capability
// drops — the label churn Figure 9 charges per connection — for after the
// flush: the buffered handoff's Grant(uC) is only legal while the shard
// still holds uC ⋆.
func (s *demuxShard) release(cs *dconn) {
	if cs.deadline != nil {
		cs.deadline.Stop()
	}
	s.proc.Dissociate(cs.reply)
	s.out.DropAfter(cs.uC.Handle())
	s.out.DropAfter(cs.reply)
	s.conns.del(cs.reply)
}

// fail writes an HTTP error and closes the connection (pre-handoff); the
// dconn is released when the control reply arrives (handleConnReply).
func (s *demuxShard) fail(cs *dconn, status int) {
	cs.failing = true // a racing deadline expiry must not write a second error
	body := httpmsg.FormatResponse(status, nil, nil)
	netd.Write(cs.uC, handle.None, body)
	netd.Control(cs.uC, cs.reply, netd.CtlClose)
}

// failDirect is fail for the post-release path: the dconn is already
// gone, so nothing waits for an answer and both messages go unacknowledged.
func (s *demuxShard) failDirect(cs *dconn, status int) {
	body := httpmsg.FormatResponse(status, nil, nil)
	netd.Write(cs.uC, handle.None, body)
	netd.Control(cs.uC, handle.None, netd.CtlClose)
}

func (s *demuxShard) drop(cs *dconn) {
	if cs.deadline != nil {
		cs.deadline.Stop()
	}
	s.proc.Dissociate(cs.reply)
	s.proc.DropPrivilege(cs.reply, label.L1)
	s.proc.DropPrivilege(cs.uC.Handle(), label.L1)
	s.conns.del(cs.reply)
}

// SessionCount reports the total size of the session tables (diagnostics).
func (dm *Demux) SessionCount() int {
	n := 0
	for _, s := range dm.shards {
		n += s.sessions.Len()
	}
	return n
}

// ConnCount reports connections currently tracked across shards; a fully
// settled stack (every connection handed off or torn down) reports zero.
func (dm *Demux) ConnCount() int {
	n := 0
	for _, s := range dm.shards {
		n += s.conns.len()
	}
	return n
}

// sessionShardSpread reports, per (user, service), how many shards hold a
// session entry — the sharded-stress test asserts every count is exactly 1
// (a session never splits across shards). Test hook; callers must ensure
// the loops are quiescent.
func (dm *Demux) sessionShardSpread() map[sessionKey]int {
	out := make(map[sessionKey]int)
	for _, s := range dm.shards {
		for _, k := range s.sessions.Keys() {
			out[k]++
		}
	}
	return out
}
