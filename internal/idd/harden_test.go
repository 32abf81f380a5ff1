package idd_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"asbestos/internal/db"
	"asbestos/internal/dbproxy"
	"asbestos/internal/handle"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/passhash"
)

// The hardening regressions: lockout-ladder arithmetic, deferred verdicts,
// the failed-login capability leak, the payload-pool leak, bounded-cache
// eviction safety, the cached-login database bypass, plaintext-row
// migration, and the sharded deployment (ownership, forwarding, broadcast,
// and a credential-stuffing stress).

// bootOpts is boot with idd's Options pinned; it returns the backing
// database too, so tests can corrupt or seed rows behind idd's back.
func bootOpts(t *testing.T, o idd.Options) (*harness, *db.DB) {
	t.Helper()
	sys := kernel.NewSystem(kernel.WithSeed(11))
	dbh := db.Open()
	proxy := dbproxy.New(sys, dbh)
	id := idd.NewOpts(sys, proxy, o)
	go proxy.Run()
	go id.Run()
	t.Cleanup(func() { proxy.Stop(); id.Stop() })
	h := &harness{sys: sys, proxy: proxy, id: id}
	addUser(t, h, "alice", "pw-a", "1001")
	addUser(t, h, "bob", "pw-b", "1002")
	return h, dbh
}

func addUser(t *testing.T, h *harness, user, pass, uid string) {
	t.Helper()
	admin := h.sys.NewProcess("setup-" + user)
	reply := admin.Open(nil).Handle()
	adminPort, _ := h.sys.Env(idd.EnvAdminPort)
	if err := idd.AddUser(admin.Port(adminPort), user, pass, uid, reply); err != nil {
		t.Fatal(err)
	}
	d, err := admin.RecvCtx(context.Background(), reply)
	if err != nil || !idd.ParseAddUserReply(d) {
		t.Fatalf("add user %s: %v", user, err)
	}
	d.Release()
	admin.Exit()
}

// noLockout disables the backoff ladder (distinct from nil = DefaultLadder).
var noLockout = []idd.BackoffRung{}

func TestLadderDelayArithmetic(t *testing.T) {
	cases := []struct {
		fails int
		want  time.Duration
	}{
		{0, 0}, {1, 0}, {2, 0},
		{3, 5 * time.Second}, {4, 5 * time.Second},
		{5, 30 * time.Second}, {6, 30 * time.Second},
		{7, 2 * time.Minute}, {8, 2 * time.Minute}, {9, 2 * time.Minute},
		{10, 5 * time.Minute}, {11, 5 * time.Minute}, {100, 5 * time.Minute},
	}
	for _, c := range cases {
		if got := idd.LadderDelay(idd.DefaultLadder, c.fails); got != c.want {
			t.Errorf("LadderDelay(DefaultLadder, %d) = %v, want %v", c.fails, got, c.want)
		}
	}
	if got := idd.LadderDelay(noLockout, 1000); got != 0 {
		t.Errorf("empty ladder must never lock out, got %v", got)
	}
}

// TestBackoffLockout drives a username up the ladder and checks the three
// lockout behaviours: immediate failures below the rung, a DEFERRED verdict
// while locked (even for the correct password — the whole point is that the
// attacker learns nothing faster by guessing right), and a clean reset
// after the post-expiry success.
func TestBackoffLockout(t *testing.T) {
	h, _ := bootOpts(t, idd.Options{
		Ladder: []idd.BackoffRung{{Fails: 2, Delay: 120 * time.Millisecond}},
	})
	client := h.sys.NewProcess("client")

	// Two failures get immediate verdicts; the second arms the lockout.
	for i := 0; i < 2; i++ {
		if _, ok := h.login(t, client, "alice", "WRONG"); ok {
			t.Fatal("wrong password accepted")
		}
	}

	// Locked: the correct password must ALSO fail, and the verdict must be
	// deferred to the lockout's expiry rather than answered promptly.
	start := time.Now()
	id, ok := h.login(t, client, "alice", "pw-a")
	elapsed := time.Since(start)
	if ok {
		t.Fatalf("login during lockout accepted (identity %+v)", id)
	}
	if elapsed < 60*time.Millisecond {
		t.Errorf("lockout verdict arrived after %v, want deferral to ~120ms expiry", elapsed)
	}

	// Expired: success goes through and resets the ladder — the next single
	// failure must again be answered immediately (a non-reset ladder would
	// already be at fails=3 and defer it).
	if _, ok := h.login(t, client, "alice", "pw-a"); !ok {
		t.Fatal("login after lockout expiry failed")
	}
	start = time.Now()
	if _, ok := h.login(t, client, "alice", "WRONG"); ok {
		t.Fatal("wrong password accepted")
	}
	if elapsed := time.Since(start); elapsed > 60*time.Millisecond {
		t.Errorf("first failure after reset took %v, want immediate", elapsed)
	}
}

// TestFailedLoginPrivilegeFlat is the capability-leak regression: a burst
// of failed logins must leave idd's send label exactly where it started.
// The failure path used to skip DropPrivilege on the ⋆-granted reply
// capability, growing the trusted process's privilege set by one entry per
// failed attempt forever.
func TestFailedLoginPrivilegeFlat(t *testing.T) {
	h, _ := bootOpts(t, idd.Options{Ladder: noLockout})
	client := h.sys.NewProcess("client")
	baseline := h.id.Process().SendLabel().Len()
	for i := 0; i < 20; i++ {
		if _, ok := h.login(t, client, "alice", "WRONG"); ok {
			t.Fatal("wrong password accepted")
		}
		if _, ok := h.login(t, client, fmt.Sprintf("ghost%d", i), "pw"); ok {
			t.Fatal("unknown user accepted")
		}
	}
	// idd sheds the reply capability just AFTER sending each verdict, so
	// poll briefly like the label-growth test does.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := h.id.Process().SendLabel().Len(); n == baseline {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("idd send label at %d entries after failed-login burst, want baseline %d", n, baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoginPayloadPoolBalanced is the payload-leak regression: across a
// closed loop of login round trips, the kernel's payload pool must see
// returns keep pace with draws. idd's inline database Recv used to drop
// every reply buffer on the floor (as did the client helpers audited with
// it), so the drawn−returned gap grew linearly with traffic.
func TestLoginPayloadPoolBalanced(t *testing.T) {
	h, _ := bootOpts(t, idd.Options{Ladder: noLockout})
	client := h.sys.NewProcess("client")
	warm := func() {
		reply := client.Open(nil).Handle()
		port, _ := h.sys.Env(idd.EnvLoginPort)
		if err := idd.Login(client.Port(port), 99, "alice", "pw-a", reply); err != nil {
			t.Fatal(err)
		}
		d, err := client.RecvCtx(context.Background(), reply)
		if err != nil {
			t.Fatal(err)
		}
		d.Release()
		client.Dissociate(reply)
	}
	warm() // cache fill (one-time mint + mapping pushes) outside the window

	const rounds = 50
	before := kernel.PayloadPoolStats()
	for i := 0; i < rounds; i++ {
		warm()
	}
	after := kernel.PayloadPoolStats()
	drawn := after.Drawn - before.Drawn
	returned := after.Returned - before.Returned
	// Cached logins are a closed two-message loop (request in, verdict out),
	// both released; allow a little slack for in-flight deliveries but
	// nothing proportional to the round count.
	if gap := int64(drawn) - int64(returned); gap > 8 {
		t.Fatalf("payload pool leaked: %d drawn, %d returned (gap %d) across %d cached logins",
			drawn, returned, gap, rounds)
	}
}

// TestEvictionNoOrphan is the bounded-cache regression: evicting a user
// from the identity cache must not orphan anything. The handle pair is
// persisted at mint time, so the post-eviction login returns the SAME
// uT/uG — the ⋆ grants, clearances, and ok-dbproxy mappings minted the
// first time remain valid rather than dangling on dead handles.
func TestEvictionNoOrphan(t *testing.T) {
	h, _ := bootOpts(t, idd.Options{CacheCap: 1, Ladder: noLockout})
	client := h.sys.NewProcess("client")
	first, ok := h.login(t, client, "alice", "pw-a")
	if !ok {
		t.Fatal("login failed")
	}
	// Cap 1: bob's login evicts alice.
	if _, ok := h.login(t, client, "bob", "pw-b"); !ok {
		t.Fatal("login failed")
	}
	again, ok := h.login(t, client, "alice", "pw-a")
	if !ok {
		t.Fatal("post-eviction login failed")
	}
	if again.UT != first.UT || again.UG != first.UG {
		t.Fatalf("eviction re-minted handles: %+v then %+v", first, again)
	}
	// The original mapping still authorizes the user at ok-dbproxy.
	w, id := workerFixture(t, h, "alice", "pw-a")
	if id.UT != first.UT {
		t.Fatalf("worker fixture saw %v, want %v", id.UT, first.UT)
	}
	proxyPort, _ := h.sys.Env(dbproxy.EnvWorkerPort)
	reply := w.Open(nil).Handle()
	v := dbproxy.VerifyFor(id.UT, id.UG)
	if err := dbproxy.Query(w.Port(proxyPort), "alice", "CREATE TABLE notes (text)", nil, reply, v); err != nil {
		t.Fatal(err)
	}
	d, err := w.RecvCtx(context.Background(), reply)
	if err != nil {
		t.Fatal(err)
	}
	_, done := dbproxy.ParseDone(d)
	_, qerr := dbproxy.ParseError(d)
	d.Release()
	if !done || qerr {
		t.Fatal("post-eviction mapping no longer authorizes queries")
	}
}

// TestCachedLoginSkipsDatabase pins the doc's claim that repeat logins
// bypass ok-dbproxy entirely: corrupt the user's stored credential behind
// idd's back and the cached login still verifies (it never looks), while a
// cache MISS sees the corrupt row and fails.
func TestCachedLoginSkipsDatabase(t *testing.T) {
	h, dbh := bootOpts(t, idd.Options{CacheCap: 1, Ladder: noLockout})
	client := h.sys.NewProcess("client")
	if _, ok := h.login(t, client, "alice", "pw-a"); !ok {
		t.Fatal("login failed")
	}
	if _, err := dbh.Exec("UPDATE "+idd.UsersTable+" SET password = ? WHERE name = ?",
		"$argon2id$corrupted", "alice"); err != nil {
		t.Fatal(err)
	}
	// Cache hit: verified locally, the corrupt row is never read.
	if _, ok := h.login(t, client, "alice", "pw-a"); !ok {
		t.Fatal("cached login consulted the database")
	}
	// Evict alice (cap 1), forcing the next login back to the row.
	if _, ok := h.login(t, client, "bob", "pw-b"); !ok {
		t.Fatal("login failed")
	}
	if _, ok := h.login(t, client, "alice", "pw-a"); ok {
		t.Fatal("cache-miss login did not consult the database")
	}
}

// TestPlaintextMigration covers the seed-era rows: a plaintext password
// still authenticates (constant-time compare), and the first success
// rewrites the row as an Argon2id hash that subsequent logins verify.
func TestPlaintextMigration(t *testing.T) {
	h, dbh := bootOpts(t, idd.Options{Ladder: noLockout})
	if _, err := dbh.Exec("INSERT INTO "+idd.UsersTable+
		" (name, password, uid, ut, ug) VALUES (?, ?, ?, ?, ?)",
		"legacy", "oldpw", "1903", "", ""); err != nil {
		t.Fatal(err)
	}
	client := h.sys.NewProcess("client")
	if _, ok := h.login(t, client, "legacy", "WRONG"); ok {
		t.Fatal("wrong plaintext password accepted")
	}
	if _, ok := h.login(t, client, "legacy", "oldpw"); !ok {
		t.Fatal("plaintext-row login failed")
	}
	res, err := dbh.Exec("SELECT password FROM "+idd.UsersTable+" WHERE name = ?", "legacy")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("row lookup: %v %v", res, err)
	}
	stored := res.Rows[0][0]
	if !passhash.IsHash(stored) {
		t.Fatalf("row not migrated to a hash: %q", stored)
	}
	if !passhash.Verify("oldpw", stored) {
		t.Fatal("migrated hash does not verify the original password")
	}
	if _, ok := h.login(t, client, "legacy", "oldpw"); !ok {
		t.Fatal("post-migration login failed")
	}
}

// loginAt is h.login against an explicit shard port, with token matching
// (stale replies from abandoned attempts are skipped and released).
func loginAt(t *testing.T, sys *kernel.System, p *kernel.Process, port, reply handle.Handle, token uint64, user, pass string) (idd.Identity, bool) {
	t.Helper()
	if err := idd.Login(p.Port(port), token, user, pass, reply); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		d, err := p.RecvCtx(ctx, reply)
		if err != nil {
			t.Fatalf("login %s: %v", user, err)
		}
		id, tok, ok := idd.ParseLoginReply(d)
		d.Release()
		if tok != token {
			continue
		}
		return id, ok
	}
}

// TestMisroutedLoginForwarded sends logins to the WRONG shard and requires
// the right answer anyway: the first attempt is forwarded to the owner, and
// once the owner's broadcast lands, the replica can answer by itself —
// with the same identity either way.
func TestMisroutedLoginForwarded(t *testing.T) {
	h, _ := bootOpts(t, idd.Options{Shards: 2, Ladder: noLockout})
	ports := h.id.LoginPorts()
	owner := idd.ShardFor("alice", len(ports))
	wrong := ports[1-owner]
	client := h.sys.NewProcess("client")
	reply := client.Open(nil).Handle()

	first, ok := loginAt(t, h.sys, client, wrong, reply, 1, "alice", "pw-a")
	if !ok {
		t.Fatal("misrouted login failed")
	}
	again, ok := loginAt(t, h.sys, client, wrong, reply, 2, "alice", "pw-a")
	if !ok || again.UT != first.UT || again.UG != first.UG {
		t.Fatalf("misrouted repeat login: ok=%v, %+v then %+v", ok, first, again)
	}
	if _, ok := loginAt(t, h.sys, client, wrong, reply, 3, "alice", "WRONG"); ok {
		t.Fatal("misrouted wrong password accepted")
	}
}

// TestShardedLoginStress is the credential-stuffing stress: several client
// goroutines hammer a 2-shard idd with distinct and repeated usernames,
// wrong passwords, misrouted requests, and abandoned attempts whose replies
// are never read. It must stay race-clean (the suite runs under -race in
// CI), every awaited verdict must be correct, and each user's identity must
// be stable across shards and clients.
func TestShardedLoginStress(t *testing.T) {
	h, _ := bootOpts(t, idd.Options{Shards: 2, Ladder: noLockout})
	const nUsers = 6
	users := make([]string, nUsers)
	for i := range users {
		users[i] = fmt.Sprintf("su%02d", i)
		addUser(t, h, users[i], "pw-"+users[i], fmt.Sprintf("%d", 40000+i))
	}
	ports := h.id.LoginPorts()

	var identities sync.Map // user → handle.Handle (uT)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	const clients, rounds = 4, 40
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := h.sys.NewProcess(fmt.Sprintf("stress-%d", c))
			reply := p.Open(nil).Handle()
			tok := uint64(c) << 32
			for i := 0; i < rounds; i++ {
				user := users[(c+i)%nUsers]
				pass := "pw-" + user
				port := ports[idd.ShardFor(user, len(ports))]
				tok++
				switch i % 5 {
				case 1: // misroute: the replica must forward or answer
					port = ports[1-idd.ShardFor(user, len(ports))]
				case 2: // wrong password
					pass = "WRONG"
				case 3: // abandoned attempt: send, never await the verdict
					if err := idd.Login(p.Port(port), tok, user, pass, reply); err != nil {
						errs <- err
						return
					}
					continue
				}
				id, ok := loginAt(t, h.sys, p, port, reply, tok, user, pass)
				if pass == "WRONG" {
					if ok {
						errs <- fmt.Errorf("client %d: wrong password for %s accepted", c, user)
						return
					}
					continue
				}
				if !ok {
					errs <- fmt.Errorf("client %d: login %s failed", c, user)
					return
				}
				if prev, loaded := identities.LoadOrStore(user, id.UT); loaded && prev != id.UT {
					errs <- fmt.Errorf("client %d: %s identity flapped %v → %v", c, user, prev, id.UT)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
