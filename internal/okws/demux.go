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
//     table, connection table, login cache, round-robin counters) is
//     private to one shard's loop. No state is shared, so no locking.
//   - A USER is owned by shard.Of(user, N): that shard authenticates the
//     user, holds the session entry, and performs every handoff — so a
//     session can never split across shards.
//   - A CONNECTION initially belongs to whichever shard netd's round-robin
//     handed it to; that shard reads and parses the headers. If the parsed
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
	// shard timers — an idle shard arms no standing tick for either.
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

	notifyPort  *kernel.Port // netd's new connections and read/taint replies
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

	// sessions maps (user, service) to its one entry, pinned or bound (see
	// session): a fresh user's key is pinned to the replica chosen for it
	// until the worker registers the session port, so two quick
	// connections from a new user cannot land on different replicas, and
	// bound from then on. rr advances only when a genuinely fresh user is
	// assigned a replica. Both are per-shard: a user's entry lives only in
	// the owning shard. sessions is bounded (LRU); retire settles an
	// evicted entry.
	sessions *lru.Cache[sessionKey, *session]
	rr       map[string]uint64

	conns *connTable // connection port uC → state, until handoff or teardown

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

// session is one (user, service) entry. While port is handle.None the key
// is PINNED: a start is in flight to replica, and waiters are the
// connections parked behind it — a second fresh start would split the
// session over two event processes. Registration BINDS the entry to the
// session port and drains the waiters. timer is the entry's one clock:
// retryAfter while pinned (expired), then the sessionTTL idle clock once
// bound — nil with no TTL, so a bound entry arms nothing.
type session struct {
	port    handle.Handle
	replica handle.Handle
	waiters []*dconn
	timer   *evloop.Timer
}

// pendingLogin is one in-flight idd round trip and the connections whose
// fate it decides. toks lists every token issued for it — the original
// request plus each re-issue — and the first reply matching any of them
// settles the set; waiters is capped at maxParkedPerSession like a pin's
// queue. timer fires retryAfter after the newest request and re-asks idd
// under a fresh token (loginExpired); the settling reply stops it, so a
// shard with no pending login arms nothing.
type pendingLogin struct {
	key     credKey
	toks    []uint64
	waiters []*dconn
	timer   *evloop.Timer
}

// retryAfter is the demux's one clock on a message that can be lost (§4:
// sends are unreliable). A pending login with no verdict retryAfter after
// its newest request is re-asked; a pin with no registration retryAfter
// after its newest start probes its oldest waiter to the same replica.
// Nothing waits on more traffic, so a quiet user recovers on the clock
// alone. The demux cannot tell a lost registration from a slow one, so a
// probe MAY duplicate the session's event process (the newer registration
// wins and the loser is evicted) — liveness over strict EP uniqueness.
//
// maxParkedPerSession bounds the connections waiting on one in-flight
// start or login; a flood beyond it is refused with 503 instead of holding
// demux memory.
const (
	retryAfter          = 100 * time.Millisecond
	maxParkedPerSession = 256
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

// dconn is per-connection demux state from netd's notify until handoff or
// teardown. uC is the connection port as a cached endpoint: the demux's
// repeated reads and the taint exchange reuse the resolved route. netd
// answers them on the shard's notify port, naming uC, so the connection
// needs no port of its own.
type dconn struct {
	uC  *kernel.Port
	buf []byte // every byte read so far, forwarded on handoff
	req *httpmsg.Request
	id  idd.Identity

	// deadline is the request's demux-side deadline timer (nil when the
	// demux has no reqDeadline); expiry 504s and tears the connection down
	// wherever it is parked.
	deadline *evloop.Timer
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
	// the burst drain, Batcher flush, the shard timers, and stop.
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
		// The notify port is closed by capability: Listen grants ⋆ to netd
		// alone, so nobody else can forge a reply that advances a
		// connection.
		notify := proc.Open(nil)
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
			rr:            make(map[string]uint64),
			conns:         newConnTable(),
			idCache:       lru.New[credKey, idd.Identity](perShard(idCacheCap)),
			pendingLogins: make(map[credKey]*pendingLogin),
			pendingByTok:  make(map[uint64]*pendingLogin),
			out:           lp.Out(),
		}
		s.sessions = lru.NewEvict(perShard(sessionCap), s.retire)
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
	e, ok := s.sessions.Get(key)
	if !ok {
		e = s.track(key, handle.None)
	} else if e.port != handle.None && e.port != port {
		// A re-registration superseding an earlier session (a probe can
		// duplicate an EP; the newer registration wins): reclaim the
		// loser's event process just like an LRU eviction.
		s.evictSession(e.port)
	}
	e.port = port
	// The entry's clock turns from the retry deadline into the idle TTL.
	if s.dm.sessionTTL > 0 {
		e.timer.Arm(time.Now().Add(s.dm.sessionTTL))
	} else if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
	// Connections that raced the registration ride the bound path now.
	// Waiters whose request deadline already tore them down are skipped:
	// their uC ⋆ is gone, and batching a grant for it would poison the
	// whole flush (a batch is rejected atomically).
	for _, cs := range e.waiters {
		if s.live(cs) {
			s.cont(port, cs)
		}
	}
	e.waiters = nil
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
		deadlineMS := r.U32()
		buf := r.Bytes()
		if r.Err() {
			return
		}
		cs := &dconn{uC: s.proc.Port(conn), buf: buf}
		s.conns.put(conn, cs)
		// The forwarder's remaining time rides along, so one clock covers
		// the request on every shard it passes through.
		s.armDeadline(cs, time.Duration(deadlineMS)*time.Millisecond)
		req, _, complete, err := httpmsg.ParseRequest(buf)
		if err != nil || !complete {
			// The forwarder only forwards parsed requests; anything else is
			// a stale or corrupt handoff.
			s.fail(cs, 400)
			return
		}
		cs.req = req
		s.authenticate(cs)
	}
}

// handleNotify advances a connection's state machine: netd deals it here,
// then answers the header reads and the taint on the same port, each reply
// naming the connection. A reply for a connection the shard no longer
// tracks (torn down by its deadline, say) is ignored.
func (s *demuxShard) handleNotify(d *kernel.Delivery) {
	if n, ok := netd.ParseNotify(d); ok {
		cs := &dconn{uC: s.proc.Port(n.ConnPort)}
		s.conns.put(n.ConnPort, cs)
		s.armDeadline(cs, s.dm.reqDeadline)
		netd.Read(cs.uC, s.notifyPort.Handle(), 4096)
		return
	}
	if rr, ok := netd.ParseReadReply(d); ok {
		cs := s.conns.get(rr.Conn)
		if cs == nil || cs.req != nil {
			return
		}
		cs.buf = append(cs.buf, rr.Data...)
		req, _, complete, err := httpmsg.ParseRequest(cs.buf)
		switch {
		case err != nil:
			s.fail(cs, 400)
		case complete:
			cs.req = req
			s.route(cs)
		case rr.EOF:
			s.fail(cs, 0)
		default:
			netd.Read(cs.uC, s.notifyPort.Handle(), 4096)
		}
		return
	}
	if conn, ok := netd.ParseAddTaintReply(d); ok {
		if cs := s.conns.get(conn); cs != nil {
			s.handoff(cs)
		}
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
	// Forward every byte the demux has read, the remaining deadline and the
	// connection capability; the owner re-parses and authenticates.
	// Buffered in the batcher so a burst of misrouted connections leaves as
	// one SendBatch per sibling; uC ⋆ is shed only after the flush (the
	// buffered grant needs it).
	s.out.Add(s.lp.Peer(owner).Handle(), encodeFwdConn(cs.uC.Handle(), cs.remainingMS(), cs.buf),
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
	pl := &pendingLogin{key: key, toks: []uint64{s.loginTok}, waiters: []*dconn{cs}}
	s.pendingLogins[key] = pl
	s.pendingByTok[s.loginTok] = pl
	// Arm the per-key retry clock: it must fire even if no further
	// connection ever arrives for this credential pair.
	pl.timer = s.lp.Timer(func(now time.Time) { s.loginExpired(now, pl) })
	pl.timer.Arm(time.Now().Add(retryAfter))
}

// loginExpired is a pending login's retry clock, its only retry path: the
// newest idd request for this credential pair aged past retryAfter with no
// verdict, so it is re-asked under a fresh token — a request or reply
// silently dropped is recovered on the clock rather than on the user's
// patience. A late duplicate reply is harmless: the first match settles
// the set, the rest find no pending token. The waiters hold the parsed
// request — credentials included — so no plaintext is retained beyond what
// the in-flight connections already pin. If every waiter has since died to
// its own request deadline there is nobody left to answer; the pending
// entry is retired instead of retried forever.
func (s *demuxShard) loginExpired(now time.Time, pl *pendingLogin) {
	if s.pendingLogins[pl.key] != pl {
		return // settled while the expiry was in flight
	}
	for _, cs := range pl.waiters {
		if !s.live(cs) {
			continue
		}
		// Re-arm relative to the timers' notion of now (the fire time), not
		// the wall clock: the two agree in a running loop, and tests that
		// advance the timers synthetically must see the retry land
		// retryAfter past the instant they advanced to.
		pl.timer.Arm(now.Add(retryAfter))
		user, pass, _ := cs.req.User()
		s.loginTok++
		if idd.Login(s.iddPort(user), s.loginTok, user, pass, s.loginReply.Handle()) != nil {
			return
		}
		pl.toks = append(pl.toks, s.loginTok)
		s.pendingByTok[s.loginTok] = pl
		// Keep only the newest few tokens live: under sustained reply loss
		// the re-issues must not grow pendingByTok without bound (a reply to
		// a retired token is then ignored, exactly like any other stray).
		const maxLiveTokens = 8
		if len(pl.toks) > maxLiveTokens {
			delete(s.pendingByTok, pl.toks[0])
			pl.toks = pl.toks[1:]
		}
		return
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
	netd.AddTaint(cs.uC, s.notifyPort.Handle(), cs.id.UT)
	// Handoff continues when the AddTaint acknowledgment arrives.
}

// handoff runs Figure 5 step 6: forward uC to the responsible worker. With
// replicated workers, a fresh user is assigned the next replica round-robin
// and pinned there until the worker registers the session port; follow-up
// connections park behind the pin, then go straight to the session's event
// process. The handoff message is buffered in the batcher, so a burst of
// connections to the same worker leaves the demux as one SendBatch.
func (s *demuxShard) handoff(cs *dconn) {
	service := cs.req.Service()
	replicas := s.workers[service]
	if len(replicas) == 0 {
		s.fail(cs, 404)
		return
	}
	user, _, _ := cs.req.User()
	if s.ephemeral[service] {
		// Per-request service: no session will ever register, every
		// connection is fresh, and the rotation advances per connection.
		s.start(cs, s.deal(service, replicas), user, service)
		return
	}
	key := sessionKey{user, service}
	e, ok := s.sessions.Get(key)
	switch {
	case !ok:
		// Genuinely fresh user: deal to the next replica and pin until the
		// session registers, so pinned-session traffic cannot skew the
		// rotation and a burst of first connections cannot split replicas.
		e = s.track(key, s.deal(service, replicas))
		e.timer.Arm(time.Now().Add(retryAfter))
		s.start(cs, e.replica, user, service)
	case e.port != handle.None:
		// Bound: forward straight to the event process W[u], and push its
		// idle TTL out — the session just proved useful.
		if e.timer != nil {
			e.timer.Arm(time.Now().Add(s.dm.sessionTTL))
		}
		s.cont(e.port, cs)
	case len(e.waiters) >= maxParkedPerSession:
		s.fail(cs, 503)
	default:
		// Pinned: park until the registration drains us (or the pin's clock
		// probes with us) — a second fresh start would create a second
		// event process, the session EP-split the stress test forbids.
		e.waiters = append(e.waiters, cs)
	}
}

// deal picks the service's next replica round-robin, staggering each
// shard's rotation by its index so N shards' first deals spread over N
// replicas instead of all starting at replica 0.
func (s *demuxShard) deal(service string, replicas []handle.Handle) handle.Handle {
	base := replicas[(s.rr[service]+uint64(s.idx))%uint64(len(replicas))]
	s.rr[service]++
	return base
}

// start hands cs to the replica at base as a fresh session (opStart),
// forwarding every byte the demux has read — the parsed request and any
// pipelined bytes behind it — so the worker serves from bytes in hand:
// re-serializing the parsed form would cost an allocation chain per
// connection, and the worker re-parses either way.
func (s *demuxShard) start(cs *dconn, base handle.Handle, user, service string) {
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
	s.out.Add(base, encodeStart(start{
		User:       user,
		UID:        cs.id.UID,
		Conn:       cs.uC.Handle(),
		UT:         cs.id.UT,
		UG:         cs.id.UG,
		DeadlineMS: cs.remainingMS(),
		Buf:        cs.buf,
	}), opts)
	s.release(cs)
}

// cont hands cs, with every byte the demux has read, to a bound session's
// event process (opCont).
func (s *demuxShard) cont(port handle.Handle, cs *dconn) {
	s.out.Add(port, encodeCont(cont{Conn: cs.uC.Handle(), DeadlineMS: cs.remainingMS(), Buf: cs.buf}),
		&kernel.SendOpts{DecontSend: kernel.Grant(cs.uC.Handle())})
	s.release(cs)
}

// track adds a session entry for key — pinned to replica, or bound at once
// by a registration that found no pin — with its clock unarmed.
func (s *demuxShard) track(key sessionKey, replica handle.Handle) *session {
	e := &session{replica: replica}
	e.timer = s.lp.Timer(func(now time.Time) { s.expired(now, key, e) })
	s.sessions.Put(key, e)
	return e
}

// expired is a session entry's clock. A bound entry sat idle for
// sessionTTL: it is dropped and the worker's event process reclaimed, like
// a capacity eviction but on the idle clock (lru.Delete fires no evict
// hook, so the reclaim is explicit). A pin went retryAfter without a
// registration — the start or the registration may have been dropped — so
// its oldest live waiter is re-sent as a fresh start to the SAME replica
// (a probe; its registration binds the entry and drains the rest) and the
// clock re-arms. A pin nobody waits on is dropped: the user's next
// connection deals afresh.
func (s *demuxShard) expired(now time.Time, key sessionKey, e *session) {
	if e.port != handle.None {
		s.sessions.Delete(key)
		s.evictSession(e.port)
		return
	}
	for len(e.waiters) > 0 {
		cs := e.waiters[0]
		e.waiters = e.waiters[1:]
		if s.live(cs) {
			e.timer.Arm(now.Add(retryAfter))
			s.start(cs, e.replica, key.user, key.service)
			return
		}
	}
	s.sessions.Delete(key)
}

// retire is the session table's evict hook, for both states of an entry.
// It stops the entry's clock. A bound entry is a routing cache, so
// evicting it is safe for the DEMUX — but the worker still holds the
// session's event process, which evictSession tells it to ep_exit. A pin's
// live waiters are refused (503): nothing would drain them afterwards, and
// letting the user's next arrival re-deal to another replica while they
// drained to the first is the split the pin exists to prevent. The
// evicted user may transiently end up with a duplicate event process
// (whichever session registers last wins), which only occurs past
// perShard(sessionCap) concurrent users.
func (s *demuxShard) retire(_ sessionKey, e *session) {
	if e.timer != nil {
		e.timer.Stop()
	}
	if e.port != handle.None {
		s.evictSession(e.port)
		return
	}
	for _, cs := range e.waiters {
		if s.live(cs) {
			s.fail(cs, 503)
		}
	}
}

// evictSession reclaims the worker-side event process behind a session
// entry the demux is dropping (LRU capacity eviction, idle expiry, or a
// superseding re-registration): it sends opEvict to the session port so
// the worker ep_exits the orphan, then sheds the uW ⋆ the registration
// granted. Both go through the batcher — an eviction can race handoffs to
// the same port buffered earlier in the burst, and bypassing them would
// reorder the eviction ahead of a still-legal continuation. Only the demux
// (and the event process itself) hold uW ⋆, so nobody else can forge the
// exit.
func (s *demuxShard) evictSession(port handle.Handle) {
	s.out.Add(port, encodeEvict(), nil)
	s.out.DropAfter(port)
}

// live reports whether cs is still the tracked state for its connection.
// Parked references — login and pin waiters — outlive a torn-down
// connection, so every drain checks before touching one.
func (s *demuxShard) live(cs *dconn) bool { return s.conns.get(cs.uC.Handle()) == cs }

// armDeadline starts cs's request-deadline clock, d from now (no-op when d
// is 0: no deadline).
func (s *demuxShard) armDeadline(cs *dconn, d time.Duration) {
	if d <= 0 {
		return
	}
	cs.deadline = s.lp.Timer(func(time.Time) { s.deadlineExpired(cs) })
	cs.deadline.Arm(time.Now().Add(d))
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

// deadlineExpired answers a request that outlived the demux deadline with
// 504 and tears it down. References parked elsewhere find the corpse via
// live() and skip it.
func (s *demuxShard) deadlineExpired(cs *dconn) {
	if s.live(cs) {
		s.fail(cs, 504)
	}
}

// release forgets the per-connection state and schedules the drop of uC ⋆
// — the label churn Figure 9 charges per connection — for after the
// flush: the buffered handoff's Grant(uC) is only legal while the shard
// still holds uC ⋆.
func (s *demuxShard) release(cs *dconn) {
	if cs.deadline != nil {
		cs.deadline.Stop()
	}
	s.out.DropAfter(cs.uC.Handle())
	s.conns.del(cs.uC.Handle())
}

// fail tears a connection down without a handoff: the HTTP error (none
// when status is 0), then a close, both straight to netd and neither
// acknowledged — per-sender FIFO on uC keeps the close behind the write —
// then release. The close is what makes netd drop the connection's port
// and socket, so every failure, an EOF before a whole request included,
// leaves nothing behind on either side.
func (s *demuxShard) fail(cs *dconn, status int) {
	if status != 0 {
		netd.Write(cs.uC, handle.None, httpmsg.FormatResponse(status, nil, nil))
	}
	netd.Control(cs.uC, handle.None, netd.CtlClose)
	s.release(cs)
}

// SessionCount reports the total size of the session tables — pinned and
// bound entries alike (diagnostics).
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
