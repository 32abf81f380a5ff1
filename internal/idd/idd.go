// Package idd implements OKWS's identity server (paper §7.4), sharded
// N-way on the shared internal/evloop runtime. It associates persistent
// user identification data — username, user ID, Argon2id password hash —
// with the per-boot grant and taint handles uG and uT. On a successful
// login it grants the querier both handles at ⋆ and raises its clearance
// for uT.
//
// Ownership:
//
//   - A USERNAME is owned by ShardFor(user, N) — shard.Of over the
//     SHA-256 of the name, so the owner cannot be steered by crafting
//     usernames that collide under a weak hash. One owner answers every
//     login for the name: it authenticates the user, mints and persists
//     the handle pair, and runs the backoff ladder. A login that reaches
//     another shard is forwarded to the owner, so only the owner holds the
//     user's uT ⋆/uG ⋆ and only the owner's ladder decides.
//   - idd keeps no identity cache: every login reads the user's row (one
//     key-index probe through ok-dbproxy) and verifies the password
//     against its Argon2id hash, so a login for a name someone else used
//     recently costs what any other login costs. Repeat logins are the
//     demux's to absorb, in its credential cache. The handle pair is
//     persisted in the row at mint time, so every later login reloads the
//     SAME uT/uG, and the mappings pushed to ok-dbproxy (and the ⋆ the
//     owner's process retains) stay valid.
//
// Failed-login backoff: the owner keeps a bounded per-username failure
// count and, past the ladder's first rung (Options.Ladder; DefaultLadder:
// 3 fails → 5s … 10 fails → 5min), locks the name out. Attempts against a
// locked name are not verified at all — no hashing, no database — their
// failure replies are deferred until the lockout expires (driven by a
// timer on the evloop shard), so a credential-stuffing flood costs
// the attacker time instead of idd capacity. A success resets the name's
// ladder. The per-name lockout is observable by design: it answers the
// attacker's own attempts against a name. Unknown names climb the same
// ladder, so a lockout does not tell which names exist.
//
// Passwords are stored as PHC-encoded Argon2id strings (internal/passhash)
// and compared in constant time; a row holding anything else fails every
// login. An unknown username is verified against a dummy hash built at
// boot, so it costs the same Argon2id as a wrong password and verdict
// latency does not tell which usernames exist.
package idd

import (
	"crypto/sha256"
	"strconv"
	"time"

	"asbestos/internal/dbproxy"
	"asbestos/internal/evloop"
	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/lru"
	"asbestos/internal/passhash"
	"asbestos/internal/shard"
	"asbestos/internal/stats"
	"asbestos/internal/wire"
)

// Ops on the login port.
const (
	OpLogin  = 10 // token u64, user, pass, reply
	OpLoginR = 11 // token u64, ok byte, uid, uT, uG (handles granted at ⋆ via DS)
	// The token is chosen by the caller and echoed verbatim in the reply,
	// so a client juggling several in-flight logins on one reply port can
	// match verdicts to requests even when a request or reply is silently
	// dropped (unreliable sends, §4) — positional matching would hand one
	// user another user's identity the moment a message went missing.
)

// Ops on the admin port (account management, used by the launcher/tests).
const (
	OpAddUser  = 12 // user, pass, uid, reply
	OpAddUserR = 13 // ok byte
)

// UsersTable is the password table idd keeps through ok-dbproxy's admin
// interface: (name, password, uid, ut, ug). password is a PHC Argon2id
// string; ut/ug persist the minted handle pair, so every login after the
// first returns the handles whose bindings were pushed to ok-dbproxy.
const UsersTable = "okws_users"

// EnvLoginPort and EnvAdminPort are the environment names for idd's shard-0
// ports (single-shard clients); sharded clients route by ShardFor over
// LoginPorts.
const (
	EnvLoginPort = "idd"
	EnvAdminPort = "idd-admin"
)

// Identity is one authenticated user's handle pair.
type Identity struct {
	UID string
	UT  handle.Handle
	UG  handle.Handle
}

// ShardFor returns the idd shard owning a username among n shards. The key
// is hashed through SHA-256 first: the owner of a hostile username must not
// be predictable-by-construction the way a raw FNV of attacker-chosen bytes
// is steerable.
func ShardFor(user string, n int) int {
	if n <= 1 {
		return 0
	}
	sum := sha256.Sum256([]byte(user))
	return shard.Of(string(sum[:]), n)
}

// BackoffRung is one step of the failed-login lockout ladder: at Fails
// consecutive failures (and beyond, until the next rung), the username
// locks for Delay.
type BackoffRung struct {
	Fails int
	Delay time.Duration
}

// DefaultLadder is the bounded exponential lockout ladder: two free
// attempts, then 5s, 30s, 2min and — from the tenth failure on — a capped
// 5min. Bounded on purpose: an unbounded ladder would let an attacker
// permanently lock a victim's name out with a stream of wrong guesses.
var DefaultLadder = []BackoffRung{
	{Fails: 3, Delay: 5 * time.Second},
	{Fails: 5, Delay: 30 * time.Second},
	{Fails: 7, Delay: 2 * time.Minute},
	{Fails: 10, Delay: 5 * time.Minute},
}

// LadderDelay returns the lockout a rung ladder imposes after fails
// consecutive failures (0 below the first rung). Rungs must be in
// ascending Fails order; the highest rung reached wins.
func LadderDelay(ladder []BackoffRung, fails int) time.Duration {
	var d time.Duration
	for _, r := range ladder {
		if fails >= r.Fails {
			d = r.Delay
		}
	}
	return d
}

// maxDeferredPerUser bounds the failure replies parked behind one locked
// username. Attempts beyond the cap are dropped outright (sends are
// unreliable by design; the demux's token machine re-asks), which keeps a
// flood against one name from holding idd memory.
const maxDeferredPerUser = 8

// DefaultCacheCap bounds the backoff table when Options leaves the knob
// zero; it is split across shards.
const DefaultCacheCap = 1 << 14

// Options configures NewOpts. The zero value reproduces New: one shard,
// DefaultCacheCap, ServerParams hashing, DefaultLadder.
type Options struct {
	// Shards is the event-loop count (clamped like every shard knob).
	Shards int
	// CacheCap bounds the per-service backoff table (0 =
	// DefaultCacheCap), split across shards.
	CacheCap int
	// Hash is the Argon2id cost setting for newly stored credentials
	// (zero value = passhash.ServerParams). Verification always uses the
	// parameters encoded in the stored hash.
	Hash passhash.Params
	// Ladder is the failed-login lockout ladder in ascending Fails order.
	// nil = DefaultLadder; an explicit empty slice disables lockout.
	Ladder []BackoffRung
}

// Idd is the identity server: sharded dispatchers on the shared
// internal/evloop runtime. With no fallback handler registered, each
// shard's mailbox is filtered to its login, admin and forward ports — the
// database reply port is consumed inline by adminExec, never by the loop.
type Idd struct {
	sys *kernel.System
	g   *evloop.Group

	hash   passhash.Params
	ladder []BackoffRung
	// dummy is a hash under hash's parameters. A login for an unknown
	// username is verified against it and fails whatever the result.
	dummy string

	shards []*iddShard
}

// iddShard is one loop and the state it exclusively owns.
type iddShard struct {
	i    *Idd
	idx  int
	lp   *evloop.Shard
	proc *kernel.Process

	loginPort *kernel.Port
	adminPort *kernel.Port

	// dbAdmin is this shard's home ok-dbproxy admin endpoint (statements);
	// dbAdmins is every proxy shard's admin port (mapping broadcast).
	// Capabilities are held per shard process via the GrantAdmin bootstrap.
	dbAdmin  *kernel.Port
	dbAdmins []*kernel.Port
	dbReply  *kernel.Port

	// backoff is the owner's bounded per-username failure ladder. Eviction
	// settles the victim's deferred replies (fail + shed the reply ⋆) so a
	// table-pressure eviction can never leak a capability.
	backoff *lru.Cache[string, *backoffState]
}

// backoffState tracks one username's consecutive failures; while locked
// (now < until), deferred holds the failure replies owed when the lockout
// expires.
type backoffState struct {
	fails    int
	until    time.Time
	deferred []deferredReply

	// timer fires at until when replies are parked on the lockout
	// (flushDeferred settles them); armed lazily on the first deferral, so
	// idle shards — and lockouts nobody is waiting on — cost no timer at
	// all.
	timer *evloop.Timer
}

type deferredReply struct {
	token uint64
	reply handle.Handle
}

// New boots a single-shard idd with defaults; the proxy must already exist.
func New(sys *kernel.System, proxy *dbproxy.Proxy) *Idd {
	return NewOpts(sys, proxy, Options{})
}

// NewOpts boots idd. The proxy must already exist (its loops need not be
// running yet: the user table is created through BootExec, not a blocking
// admin round trip, and each shard acquires its admin capabilities from a
// construction-time grant).
func NewOpts(sys *kernel.System, proxy *dbproxy.Proxy, o Options) *Idd {
	if o.CacheCap <= 0 {
		o.CacheCap = DefaultCacheCap
	}
	if o.Hash == (passhash.Params{}) {
		o.Hash = passhash.ServerParams
	}
	if o.Ladder == nil {
		o.Ladder = DefaultLadder
	}
	// The table is created exactly once, at boot — not re-attempted on
	// every OpAddUser. BootExec errors if the table already exists (an
	// earlier idd over the same database), which is fine.
	proxy.BootExec("CREATE TABLE " + UsersTable + " (name, password, uid, ut, ug)")

	g := evloop.New(sys, evloop.Config{
		Name:     "idd",
		Shards:   o.Shards,
		Category: stats.CatOKWS,
	})
	i := &Idd{sys: sys, g: g, hash: o.Hash, ladder: o.Ladder,
		dummy: passhash.Hash("", o.Hash)}
	n := g.Shards()
	perShard := o.CacheCap / n
	if perShard < 1 {
		perShard = 1
	}
	for idx := 0; idx < n; idx++ {
		lp := g.Shard(idx)
		proc := lp.Proc()
		login := proc.Open(nil)
		if err := login.SetLabel(label.Empty(label.L3)); err != nil {
			panic(err)
		}
		admin := proc.Open(nil)
		if err := admin.SetLabel(label.Empty(label.L3)); err != nil {
			panic(err)
		}
		s := &iddShard{
			i:         i,
			idx:       idx,
			lp:        lp,
			proc:      proc,
			loginPort: login,
			adminPort: admin,
			dbReply:   proc.Open(nil),
		}
		s.backoff = lru.NewEvict[string, *backoffState](perShard, func(_ string, st *backoffState) {
			s.flushDeferred(st)
		})

		// Bootstrap: receive one admin-port capability per proxy shard —
		// every idd shard holds its own set, so any shard can run its
		// statements and broadcast mappings without crossing loops.
		grantRx := proc.Open(nil)
		if err := grantRx.SetLabel(label.Empty(label.L3)); err != nil {
			panic(err)
		}
		if err := proxy.GrantAdmin(grantRx.Handle()); err != nil {
			panic(err)
		}
		for range proxy.AdminPorts() {
			d, err := grantRx.TryRecv()
			if err != nil || d == nil {
				panic("idd: dbproxy admin grant failed")
			}
		}
		grantRx.Dissociate()
		for _, h := range proxy.AdminPorts() {
			s.dbAdmins = append(s.dbAdmins, proc.Port(h))
		}
		// Statements from shard idx go to proxy admin shard idx mod P, so
		// N idd shards spread their lookups over the proxy replicas instead
		// of serializing on shard 0.
		s.dbAdmin = s.dbAdmins[idx%len(s.dbAdmins)]

		lp.Handle(login, s.handleLogin)
		lp.Handle(admin, s.handleAdmin)
		// Misrouted logins forwarded by a sibling arrive on the forward port
		// in the login port's own format.
		lp.HandleForward(s.handleLogin)
		i.shards = append(i.shards, s)
	}
	sys.SetEnv(EnvLoginPort, i.shards[0].loginPort.Handle())
	sys.SetEnv(EnvAdminPort, i.shards[0].adminPort.Handle())
	return i
}

// Process returns shard 0's kernel process (label inspection; the Figure 9
// label-size tracking).
func (i *Idd) Process() *kernel.Process { return i.shards[0].proc }

// Processes returns every shard's kernel process, indexed by shard.
func (i *Idd) Processes() []*kernel.Process {
	out := make([]*kernel.Process, len(i.shards))
	for idx, s := range i.shards {
		out[idx] = s.proc
	}
	return out
}

// ShardCount reports the number of login loops.
func (i *Idd) ShardCount() int { return len(i.shards) }

// LoginPorts returns every shard's login port, indexed by shard; clients
// route user u's login to LoginPorts()[ShardFor(u, n)]. A login sent to
// another shard still works — it is forwarded to the owner — it just pays
// an extra hop.
func (i *Idd) LoginPorts() []handle.Handle {
	out := make([]handle.Handle, len(i.shards))
	for idx, s := range i.shards {
		out[idx] = s.loginPort.Handle()
	}
	return out
}

// Run runs every shard's event loop on the evloop runtime; it returns when
// Stop cancels the service's context.
func (i *Idd) Run() { i.g.Run() }

// Stop shuts idd down: context first (ends Run), then kernel state.
func (i *Idd) Stop() { i.g.Stop() }

// adminExec runs a statement through ok-dbproxy and waits for the reply.
// The blocking is safe: the proxy never calls back into idd, and the wait
// respects the service context so shutdown cannot hang on a lost reply.
func (s *iddShard) adminExec(sql string, args ...string) (dbproxy.AdminResult, bool) {
	if !s.adminSend(sql, args...) {
		return dbproxy.AdminResult{}, false
	}
	return s.adminWait()
}

// adminSend sends a statement to ok-dbproxy without waiting; adminWait
// reads its reply. Between the two the shard may do other work, but must
// send no other statement.
func (s *iddShard) adminSend(sql string, args ...string) bool {
	return dbproxy.AdminExec(s.dbAdmin, sql, args, s.dbReply.Handle()) == nil
}

func (s *iddShard) adminWait() (dbproxy.AdminResult, bool) {
	d, err := s.dbReply.Recv(s.i.g.Context())
	if err != nil || d == nil {
		return dbproxy.AdminResult{}, false
	}
	return dbproxy.ParseAdminResult(d)
}

func (s *iddShard) handleLogin(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	if op != OpLogin {
		return
	}
	token := r.U64()
	user := r.String()
	pass := r.String()
	reply := r.Handle()
	if r.Err() {
		return
	}
	s.login(token, user, pass, reply)
}

// login is the full verdict path for one attempt, on whichever shard it
// reached.
func (s *iddShard) login(token uint64, user, pass string, reply handle.Handle) {
	if owner := ShardFor(user, len(s.i.shards)); owner != s.idx {
		// The owner decides — it holds the user's ⋆ and the backoff ladder.
		// Re-grant the reply capability along the forward, then shed this
		// shard's copy.
		msg := wire.NewWriter(OpLogin).U64(token).String(user).String(pass).Handle(reply).Done()
		s.lp.Peer(owner).Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
		s.proc.DropPrivilege(reply, label.L1)
		return
	}

	now := time.Now()
	st, locked := s.backoff.Peek(user)
	if locked && now.Before(st.until) {
		// Locked out: no verification work at all. The verdict (failure) is
		// deferred to the lockout's expiry; past the per-user cap the
		// attempt is dropped like any other unreliable send.
		if len(st.deferred) >= maxDeferredPerUser {
			if !refersTo(st.deferred, reply) {
				s.proc.DropPrivilege(reply, label.L1)
			}
			return
		}
		st.deferred = append(st.deferred, deferredReply{token: token, reply: reply})
		// Arm the lockout-expiry timer at the window's end; one per-key
		// shard timer replaces the old standing tick, so a shard with
		// nothing locked arms nothing. Re-arming on each deferral is
		// idempotent (until is fixed while locked).
		if st.timer == nil {
			st.timer = s.lp.Timer(func(time.Time) { s.flushDeferred(st) })
		}
		st.timer.Arm(st.until)
		return
	}
	if locked && len(st.deferred) > 0 {
		// The lockout expired but its timer has not fired yet: settle the
		// queue first so verdicts stay ordered.
		s.flushDeferred(st)
	}

	id, ok := s.authenticate(user, pass)
	if !ok {
		s.recordFailure(user, now)
		s.replyFail(token, reply)
		return
	}
	if locked {
		s.backoff.Delete(user) // success resets the ladder
	}
	s.replyOK(token, id, reply)
}

// recordFailure advances the username's ladder and arms its lockout.
func (s *iddShard) recordFailure(user string, now time.Time) {
	st, ok := s.backoff.Peek(user)
	if !ok {
		st = &backoffState{}
	}
	st.fails++
	if delay := LadderDelay(s.i.ladder, st.fails); delay > 0 {
		st.until = now.Add(delay)
	}
	// Put (not just mutate): an active attacker's name stays
	// most-recently-used, so table pressure evicts stale names first.
	s.backoff.Put(user, st)
}

// flushDeferred settles a lockout queue: every waiter gets its failure
// reply, then the reply capabilities are shed — once per distinct handle,
// AFTER all sends, since the demux parks many attempts on one reply port
// and dropping ⋆ between sends would silently kill the rest. It doubles
// as the lockout timer's expiry handler; flushing early (eviction,
// ladder reset) leaves nothing for the fire to do.
func (s *iddShard) flushDeferred(st *backoffState) {
	if st.timer != nil {
		st.timer.Stop()
	}
	if len(st.deferred) == 0 {
		return
	}
	for _, dr := range st.deferred {
		s.proc.Port(dr.reply).Send(
			wire.NewWriter(OpLoginR).U64(dr.token).Byte(0).String("").
				Handle(handle.None).Handle(handle.None).Done(), nil)
	}
	for n, dr := range st.deferred {
		if !refersTo(st.deferred[:n], dr.reply) {
			s.proc.DropPrivilege(dr.reply, label.L1)
		}
	}
	st.deferred = st.deferred[:0]
}

func refersTo(deferred []deferredReply, reply handle.Handle) bool {
	for _, dr := range deferred {
		if dr.reply == reply {
			return true
		}
	}
	return false
}

// authenticate validates credentials on the owner shard: it reads the
// user's row, verifies Argon2id, and reuses the persisted handle pair —
// minting and persisting a fresh one only on the user's first-ever login
// ("it either generates new uT and uG handles ... or returns cached
// handles", §7.4).
func (s *iddShard) authenticate(user, pass string) (Identity, bool) {
	res, ok := s.adminExec(
		"SELECT password, uid, ut, ug FROM "+UsersTable+" WHERE name = ?", user)
	if !ok || len(res.Rows) != 1 {
		// No such user: pay a full verify anyway, so the verdict takes as
		// long as a wrong password's.
		passhash.Verify(pass, s.i.dummy)
		return Identity{}, false
	}
	row := res.Rows[0]
	if !passhash.Verify(pass, row[0]) {
		return Identity{}, false
	}
	id := Identity{UID: row[1]}
	if ut, okT := parseHandle(row[2]); okT {
		ug, okG := parseHandle(row[3])
		if !okG {
			return Identity{}, false
		}
		// Persisted pair: an earlier login minted these; the proxy mappings
		// and this process's ⋆ still hold.
		id.UT, id.UG = ut, ug
	} else {
		id.UT, id.UG = s.proc.NewHandle(), s.proc.NewHandle()
		s.adminExec("UPDATE "+UsersTable+" SET ut = ?, ug = ? WHERE name = ?",
			formatHandle(id.UT), formatHandle(id.UG), user)
	}
	// idd must itself tolerate uT-tainted traffic (it is trusted with ⋆).
	if err := s.proc.RaiseRecv(id.UT, label.L3); err != nil {
		return Identity{}, false
	}
	// Push the binding to every ok-dbproxy shard so each can taint rows.
	// Pushing on every login, not only at mint time, heals a push that
	// the unreliable kernel dropped.
	for _, adm := range s.dbAdmins {
		dbproxy.PushMapping(adm, user, dbproxy.Mapping{
			UID: id.UID, UT: id.UT, UG: id.UG,
		})
	}
	return id, true
}

func (s *iddShard) replyOK(token uint64, id Identity, reply handle.Handle) {
	// Success: grant uT ⋆ and uG ⋆, and raise the receiver's clearance for
	// uT so it can handle u's tainted data (Figure 5 step 4).
	msg := wire.NewWriter(OpLoginR).U64(token).Byte(1).String(id.UID).
		Handle(id.UT).Handle(id.UG).Done()
	s.proc.Port(reply).Send(msg, &kernel.SendOpts{
		//asbestos:keepstar authority idd is the identity authority: uT/uG ⋆ outlives any one login — only the transient reply capability is dropped below
		DecontSend: kernel.Grant(id.UT, id.UG),
		DecontRecv: kernel.AllowRecv(label.L3, id.UT),
	})
	s.proc.DropPrivilege(reply, label.L1)
}

// replyFail answers a failed attempt AND sheds the reply capability — the
// success path always dropped it, but the failure path used to keep it,
// growing idd's send label by one ⋆ entry per failed login forever.
func (s *iddShard) replyFail(token uint64, reply handle.Handle) {
	s.proc.Port(reply).Send(
		wire.NewWriter(OpLoginR).U64(token).Byte(0).String("").
			Handle(handle.None).Handle(handle.None).Done(), nil)
	s.proc.DropPrivilege(reply, label.L1)
}

func (s *iddShard) handleAdmin(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	if op != OpAddUser {
		return
	}
	user := r.String()
	pass := r.String()
	uid := r.String()
	reply := r.Handle()
	if r.Err() {
		return
	}
	// A name that already exists is refused: a second row would make every
	// login for it fail (authenticate wants exactly one). The existence
	// check goes out before the password is hashed and is read after, so
	// its round trip rides under the Argon2id work. Credentials are hashed
	// before they touch the database; the table itself was created once at
	// boot (NewOpts), not per insert.
	sent := s.adminSend("SELECT uid FROM "+UsersTable+" WHERE name = ?", user)
	hashed := passhash.Hash(pass, s.i.hash)
	ok := false
	if sent {
		if res, got := s.adminWait(); got && len(res.Rows) == 0 {
			_, ok = s.adminExec(
				"INSERT INTO "+UsersTable+" (name, password, uid, ut, ug) VALUES (?, ?, ?, ?, ?)",
				user, hashed, uid, "", "")
		}
	}
	b := byte(0)
	if ok {
		b = 1
	}
	s.proc.Port(reply).Send(wire.NewWriter(OpAddUserR).Byte(b).Done(), nil)
	s.proc.DropPrivilege(reply, label.L1)
}

// parseHandle decodes a persisted handle column; empty means never minted.
func parseHandle(s string) (handle.Handle, bool) {
	if s == "" {
		return handle.None, false
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return handle.None, false
	}
	return handle.Handle(v), true
}

func formatHandle(h handle.Handle) string {
	return strconv.FormatUint(uint64(h), 10)
}

// --- client helpers ---

// Login sends a login request through the caller's endpoint to an idd login
// port (route by ShardFor when holding the full LoginPorts set); the reply
// arrives on reply as OpLoginR echoing token.
func Login(iddPort *kernel.Port, token uint64, user, pass string, reply handle.Handle) error {
	msg := wire.NewWriter(OpLogin).U64(token).String(user).String(pass).Handle(reply).Done()
	return iddPort.Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
}

// ParseLoginReply decodes an OpLoginR delivery: the echoed request token,
// the identity, and whether the login succeeded. The token is valid
// whenever the delivery is a structurally sound OpLoginR, success or not;
// a garbled delivery returns token 0 and matches nothing.
func ParseLoginReply(d *kernel.Delivery) (Identity, uint64, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpLoginR {
		return Identity{}, 0, false
	}
	token := r.U64()
	okb := r.Byte()
	id := Identity{UID: r.String(), UT: r.Handle(), UG: r.Handle()}
	if r.Err() {
		return Identity{}, 0, false
	}
	if okb != 1 {
		return Identity{}, token, false
	}
	return id, token, true
}

// AddUser provisions an account (launcher/test helper); the caller needs an
// open reply port. The password travels plaintext to idd (the trusted
// tier), which stores only its Argon2id hash. idd refuses a name that
// already has an account.
func AddUser(iddAdmin *kernel.Port, user, pass, uid string, reply handle.Handle) error {
	msg := wire.NewWriter(OpAddUser).String(user).String(pass).String(uid).Handle(reply).Done()
	return iddAdmin.Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
}

// ParseAddUserReply decodes an OpAddUserR delivery.
func ParseAddUserReply(d *kernel.Delivery) bool {
	op, r := wire.NewReader(d.Data)
	return op == OpAddUserR && r.Byte() == 1 && !r.Err()
}
