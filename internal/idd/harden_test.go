package idd_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"asbestos/internal/db"
	"asbestos/internal/dbproxy"
	"asbestos/internal/handle"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/passhash"
)

// The hardening regressions: lockout-ladder arithmetic, deferred verdicts,
// the failed-login capability leak, the payload-pool leak, bounded-cache
// eviction safety, the cached-login database bypass, fail-closed non-hash
// rows, unknown-user timing, and the sharded deployment (ownership,
// forwarding, the owner's ladder for misrouted logins, and a
// credential-stuffing stress).

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
	// idd sends the reply before it drops the reply ⋆; wait for the drop,
	// so a test that reads idd's labels next sees a settled baseline.
	deadline := time.Now().Add(5 * time.Second)
	for holdsStar(h.id, reply) {
		if time.Now().After(deadline) {
			t.Fatalf("add user %s: idd still holds the reply capability", user)
		}
		time.Sleep(time.Millisecond)
	}
	admin.Exit()
}

// holdsStar reports whether any idd shard's send label holds h at ⋆.
func holdsStar(id *idd.Idd, h handle.Handle) bool {
	for _, p := range id.Processes() {
		if p.SendLabel().Get(h) == label.Star {
			return true
		}
	}
	return false
}

// noLockout disables the backoff ladder (distinct from nil = DefaultLadder).
var noLockout = []idd.BackoffRung{}

// TestDuplicateAddUserRefused: provisioning a name that already exists is
// refused, and the existing account is untouched. Accepting it used to
// leave two rows for the name, after which every login for it failed, with
// the old password or the new.
func TestDuplicateAddUserRefused(t *testing.T) {
	h, dbh := bootOpts(t, idd.Options{Ladder: noLockout})
	admin := h.sys.NewProcess("setup-again")
	defer admin.Exit()
	reply := admin.Open(nil).Handle()
	adminPort, _ := h.sys.Env(idd.EnvAdminPort)
	if err := idd.AddUser(admin.Port(adminPort), "alice", "pw-new", "2001", reply); err != nil {
		t.Fatal(err)
	}
	d, err := admin.RecvCtx(context.Background(), reply)
	if err != nil {
		t.Fatal(err)
	}
	accepted := idd.ParseAddUserReply(d)
	d.Release()
	if accepted {
		t.Fatal("second AddUser for alice accepted")
	}
	demux := h.sys.NewProcess("demux")
	if id, ok := h.login(t, demux, "alice", "pw-a"); !ok || id.UID != "1001" {
		t.Fatalf("alice's first password: login ok=%v identity %+v", ok, id)
	}
	if _, ok := h.login(t, demux, "alice", "pw-new"); ok {
		t.Fatal("the refused password logs in")
	}
	res, err := dbh.Exec("SELECT uid FROM "+idd.UsersTable+" WHERE name = ?", "alice")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("alice rows = %v, %v; want exactly one", res.Rows, err)
	}
}

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

// TestNonHashRowFailsClosed: a row whose password is not a PHC Argon2id
// string (a plaintext, say) fails every login, including one that presents
// the stored string itself, and idd leaves the row as it found it.
func TestNonHashRowFailsClosed(t *testing.T) {
	h, dbh := bootOpts(t, idd.Options{Ladder: noLockout})
	if _, err := dbh.Exec("INSERT INTO "+idd.UsersTable+
		" (name, password, uid, ut, ug) VALUES (?, ?, ?, ?, ?)",
		"legacy", "oldpw", "1903", "", ""); err != nil {
		t.Fatal(err)
	}
	client := h.sys.NewProcess("client")
	for _, pass := range []string{"WRONG", "oldpw"} {
		if _, ok := h.login(t, client, "legacy", pass); ok {
			t.Fatalf("non-hash row accepted password %q", pass)
		}
	}
	res, err := dbh.Exec("SELECT password, ut, ug FROM "+idd.UsersTable+" WHERE name = ?", "legacy")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("row lookup: %v %v", res, err)
	}
	if row := res.Rows[0]; row[0] != "oldpw" || row[1] != "" || row[2] != "" {
		t.Fatalf("row changed: %q", row)
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
// the right answer anyway: every misrouted attempt is forwarded to the
// owner, which answers with the same identity each time.
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

// TestLockoutHoldsForMisroutedLogin: a login that reaches a non-owner
// shard is decided by the owner's ladder. With alice locked at her owner,
// her correct password sent to the other shard must fail, and not before
// the lockout expires.
func TestLockoutHoldsForMisroutedLogin(t *testing.T) {
	const lockout = 300 * time.Millisecond
	h, _ := bootOpts(t, idd.Options{
		Shards: 2,
		Ladder: []idd.BackoffRung{{Fails: 2, Delay: lockout}},
	})
	ports := h.id.LoginPorts()
	owner := idd.ShardFor("alice", len(ports))
	client := h.sys.NewProcess("client")
	reply := client.Open(nil).Handle()

	if _, ok := loginAt(t, h.sys, client, ports[owner], reply, 1, "alice", "pw-a"); !ok {
		t.Fatal("login at owner failed")
	}
	// The owner reads the clock after this send, so the second failure
	// locks the name until at least start+lockout.
	var start time.Time
	for tok := uint64(2); tok <= 3; tok++ {
		start = time.Now()
		if _, ok := loginAt(t, h.sys, client, ports[owner], reply, tok, "alice", "WRONG"); ok {
			t.Fatal("wrong password accepted")
		}
	}
	id, ok := loginAt(t, h.sys, client, ports[1-owner], reply, 4, "alice", "pw-a")
	if ok {
		t.Fatalf("misrouted login during lockout accepted (identity %+v)", id)
	}
	if waited := time.Since(start); waited < lockout {
		t.Fatalf("misrouted verdict %v after the locking failure, want no earlier than the %v lockout", waited, lockout)
	}
}

// TestIddShardHoldsOnlyOwnedStar: an idd shard holds a user's uT ⋆ and
// uG ⋆, and clearance for uT 3, only when it owns the user — even after
// the user's logins have reached the other shard too.
func TestIddShardHoldsOnlyOwnedStar(t *testing.T) {
	h, _ := bootOpts(t, idd.Options{Shards: 2, Ladder: noLockout})
	ports := h.id.LoginPorts()
	var users []string
	perShard := make([]int, len(ports))
	for i := 0; perShard[0] < 2 || perShard[1] < 2; i++ {
		u := fmt.Sprintf("own%02d", i)
		if o := idd.ShardFor(u, len(ports)); perShard[o] < 2 {
			perShard[o]++
			users = append(users, u)
			addUser(t, h, u, "pw-"+u, fmt.Sprint(50000+i))
		}
	}
	client := h.sys.NewProcess("client")
	reply := client.Open(nil).Handle()
	ids := make(map[string]idd.Identity)
	tok := uint64(0)
	for _, u := range users {
		owner := idd.ShardFor(u, len(ports))
		// At the owner first, then misrouted. The misrouted verdict returns
		// only after the other shard took the request, and so after it took
		// everything the owner sent it during the first login.
		for _, port := range []handle.Handle{ports[owner], ports[1-owner]} {
			tok++
			id, ok := loginAt(t, h.sys, client, port, reply, tok, u, "pw-"+u)
			if !ok {
				t.Fatalf("login %s at %v failed", u, port)
			}
			ids[u] = id
		}
	}
	for i, p := range h.id.Processes() {
		send, recv := p.SendLabel(), p.RecvLabel()
		for _, u := range users {
			id, owns := ids[u], idd.ShardFor(u, len(ports)) == i
			for _, hd := range []handle.Handle{id.UT, id.UG} {
				if held := send.Get(hd) == label.Star; held != owns {
					t.Errorf("shard %d (owns %s: %v) holds %v at ⋆: %v", i, u, owns, hd, held)
				}
			}
			if cleared := recv.Get(id.UT) == label.L3; cleared != owns {
				t.Errorf("shard %d (owns %s: %v) receives uT %v at 3: %v", i, u, owns, id.UT, cleared)
			}
		}
	}
}

// TestUnknownUserCostsAFullVerify: a login for a name with no row verifies
// against a dummy hash, so it takes about as long as a wrong password for
// a real user, and verdict latency does not tell which usernames exist.
// The hash is heavy (16 MiB) so that Argon2id, not the message round
// trips, dominates both timings.
func TestUnknownUserCostsAFullVerify(t *testing.T) {
	heavy := passhash.Params{Time: 1, Memory: 16 * 1024, Threads: 1, KeyLen: 32}
	h, _ := bootOpts(t, idd.Options{Hash: heavy, Ladder: noLockout})
	client := h.sys.NewProcess("client")
	median := func(user string) time.Duration {
		var ds []time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, ok := h.login(t, client, user, "WRONG"); ok {
				t.Fatalf("login %s accepted", user)
			}
			ds = append(ds, time.Since(start))
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[1]
	}
	unknown, wrong := median("nobody"), median("alice")
	if unknown < wrong/4 {
		t.Fatalf("unknown user answered in %v, wrong password in %v: want at least a quarter", unknown, wrong)
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
				case 1: // misroute: the shard must forward to the owner
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
