package okws

// Tests for the sharded demux: the zero-length-delivery panic regression,
// login-failure connection cleanup, table bounds, and a race-clean stress
// test asserting session pinning survives shard dispatch.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"asbestos/internal/dbproxy"
	"asbestos/internal/handle"
	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/netd"
	"asbestos/internal/shard"
	"asbestos/internal/wire"
	"asbestos/internal/workload"
)

func echoBody(c *Ctx, req *httpmsg.Request) *httpmsg.Response {
	return &httpmsg.Response{Status: 200, Body: []byte("ok " + c.User)}
}

// TestEmptyDeliveryDoesNotPanicDemux is the regression for the
// zero-length-delivery crash: the connection reply handler used to read
// d.Data[0] unconditionally, so an empty message where netd's replies land
// panicked the trusted demux. Those replies now land on the notify port.
// Every demux dispatch path must ignore empty payloads.
func TestEmptyDeliveryDoesNotPanicDemux(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(31))
	dm := newDemux(sys, 1<<40, []handle.Handle{1 << 41}, 2, 0, 0, 0, 0) // dangling service handles
	s := dm.shards[0]

	// A connection mid-header-read, exactly the state the panic needed.
	uC := handle.Handle(1 << 42)
	cs := &dconn{uC: s.proc.Port(uC)}
	s.conns.put(uC, cs)
	for _, data := range [][]byte{nil, {}} {
		s.dispatch(&kernel.Delivery{Port: s.notifyPort.Handle(), Data: data})
	}
	if s.conns.get(uC) != cs {
		t.Fatal("empty delivery must be ignored, not tear the connection down")
	}

	// Every other demux port must shrug off empty payloads too.
	for _, port := range []handle.Handle{
		s.notifyPort.Handle(), s.sessionPort.Handle(), s.loginReply.Handle(),
		s.lp.ForwardPort().Handle(), dm.regPort.Handle(),
	} {
		s.dispatch(&kernel.Delivery{Port: port, Data: nil})
	}
}

// TestEmptyDeliveryIgnoredByServices fires zero-length messages at every
// published service port of a running stack — netd, ok-dbproxy, idd, the
// demux's registration and session ports — and requires the stack to keep
// serving. (These dispatchers parse via wire.NewReader, which rejects empty
// payloads; this pins that property.)
func TestEmptyDeliveryIgnoredByServices(t *testing.T) {
	srv, err := Launch(Config{Seed: 32, Shards: 2,
		Services: []Service{{Name: "echo", Handler: echoBody}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	if err := srv.AddUser("u", "p", "1"); err != nil {
		t.Fatal(err)
	}

	attacker := srv.Sys.NewProcess("attacker")
	targets := []string{netd.EnvName, dbproxy.EnvWorkerPort, dbproxy.EnvAdminPort,
		idd.EnvLoginPort, idd.EnvAdminPort, EnvDemuxReg, EnvDemuxSession}
	for _, env := range targets {
		h, ok := srv.Sys.Env(env)
		if !ok {
			t.Fatalf("env %q not published", env)
		}
		for _, payload := range [][]byte{nil, {}} {
			if err := attacker.Port(h).Send(payload, nil); err != nil {
				t.Fatalf("send empty to %s: %v", env, err)
			}
		}
	}
	// The stack must still answer.
	resp, err := workload.Get(srv.Network(), 80, "u", "p", "/echo")
	if err != nil || resp.Status != 200 {
		t.Fatalf("stack wedged after empty deliveries: %+v %v", resp, err)
	}
}

// TestFailedLoginReleasesConnState is the regression for the dconn leak:
// a login that fails (or a reply that does not parse) must 401 the client
// and release the per-connection state on every path — the demux must not
// accumulate one dead dconn (with its uC and reply capabilities) per failed
// login.
func TestFailedLoginReleasesConnState(t *testing.T) {
	srv, err := Launch(Config{Seed: 33, Shards: 2,
		Services: []Service{{Name: "echo", Handler: echoBody}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	if err := srv.AddUser("u", "p", "1"); err != nil {
		t.Fatal(err)
	}

	// A credential-stuffing burst: every attempt must 401.
	for i := 0; i < 25; i++ {
		resp, err := workload.Get(srv.Network(), 80,
			fmt.Sprintf("ghost%d", i), "nope", "/echo")
		if err != nil || resp.Status != 401 {
			t.Fatalf("attempt %d: %+v %v", i, resp, err)
		}
	}
	// The demux releases each connection just after its 401 leaves, so the
	// client can read the answer a moment before; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Demux.ConnCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("failed logins leaked %d connection entries", srv.Demux.ConnCount())
		}
		time.Sleep(time.Millisecond)
	}
	// And a real user still gets through afterwards.
	resp, err := workload.Get(srv.Network(), 80, "u", "p", "/echo")
	if err != nil || resp.Status != 200 {
		t.Fatalf("stack wedged after failed logins: %+v %v", resp, err)
	}
}

// TestEmptyConnectionClosed is the regression for the EOF leak: a
// connection that ends before sending a whole request used to be forgotten
// by the demux alone, leaving netd's connection port and socket behind
// forever. The demux now closes it at netd like any other failure, so
// netd's connection count returns to its baseline and the demux tracks
// nothing.
func TestEmptyConnectionClosed(t *testing.T) {
	srv, err := Launch(Config{Seed: 43, Shards: 2,
		Services: []Service{{Name: "echo", Handler: echoBody}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	inj := srv.Netd.Injector()
	base := inj.ConnCount()
	for i := 0; i < 50; i++ {
		c, err := srv.Network().Dial(80)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for inj.ConnCount() != base || srv.Demux.ConnCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after 50 empty connections: netd holds %d (baseline %d), demux tracks %d",
				inj.ConnCount(), base, srv.Demux.ConnCount())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDemuxTablesBounded pins the cap-and-evict behaviour of the demux's
// two attacker-growable tables: many distinct users cannot grow the login
// cache or the session table past their configured caps.
func TestDemuxTablesBounded(t *testing.T) {
	const users = 24
	srv, err := Launch(Config{Seed: 34, Shards: 2,
		SessionTableCap: 8, IDCacheCap: 6,
		Services: []Service{{Name: "echo", Handler: echoBody}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	for i := 0; i < users; i++ {
		if err := srv.AddUser(fmt.Sprintf("u%02d", i), "p", fmt.Sprintf("%d", 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < users; i++ {
		resp, err := workload.Get(srv.Network(), 80, fmt.Sprintf("u%02d", i), "p", "/echo")
		if err != nil || resp.Status != 200 {
			t.Fatalf("user %d: %+v %v", i, resp, err)
		}
	}
	if got := srv.Demux.SessionCount(); got > 8 {
		t.Fatalf("session table grew to %d entries, cap is 8", got)
	}
	idCache := 0
	for _, s := range srv.Demux.shards {
		idCache += s.idCache.Len()
	}
	if idCache > 6 {
		t.Fatalf("login cache grew to %d entries, cap is 6", idCache)
	}
	// Evicted state must degrade to a re-deal/re-login, not a failure.
	resp, err := workload.Get(srv.Network(), 80, "u00", "p", "/echo")
	if err != nil || resp.Status != 200 {
		t.Fatalf("evicted user cannot reconnect: %+v %v", resp, err)
	}
}

// storeCount is a session-stateful handler: each request increments a
// per-session counter and returns the previous value. Any break in session
// continuity (a connection served by a different event process) resets the
// counter and fails the client's expectation.
func storeCount(observed *sync.Map) Handler {
	return func(c *Ctx, req *httpmsg.Request) *httpmsg.Response {
		if procs, _ := observed.LoadOrStore(c.User, &sync.Map{}); procs != nil {
			procs.(*sync.Map).Store(c.RawProcess(), true)
		}
		prev := c.SessionLoad()
		n := 0
		fmt.Sscanf(string(prev), "%d", &n)
		c.SessionStore([]byte(fmt.Sprintf("%d", n+1)))
		return &httpmsg.Response{Status: 200, Body: []byte(fmt.Sprintf("%d", n))}
	}
}

// TestShardedSessionPinningStress drives a sharded demux (4 loops) with
// replicated workers (3) under concurrent multi-user load and asserts the
// ISSUE's pinning invariant: a session never splits across shards or
// replicas. Continuity is checked end to end (the per-session counter must
// advance by exactly one per connection — any re-deal to a different event
// process would reset it) and structurally (each user's requests all hit
// one worker process; each session key lives in exactly one shard's table).
// Run under -race this also exercises the cross-shard forward path: netd
// deals connections round-robin, so most connections land on a shard that
// does not own their user.
func TestShardedSessionPinningStress(t *testing.T) {
	const (
		shards   = 4
		replicas = 3
		nUsers   = 24
		connsPer = 6
	)
	var observed sync.Map // user → set of worker *kernel.Process
	srv, err := Launch(Config{Seed: 35, Shards: shards,
		Services: []Service{{Name: "store", Handler: storeCount(&observed), Replicas: replicas}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	if got := srv.Demux.ShardCount(); got != shards {
		t.Fatalf("ShardCount = %d, want %d", got, shards)
	}
	users := make([]string, nUsers)
	for i := range users {
		users[i] = fmt.Sprintf("stress%02d", i)
		if err := srv.AddUser(users[i], "pw", fmt.Sprintf("%d", 5000+i)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, nUsers)
	for _, user := range users {
		wg.Add(1)
		go func(user string) {
			defer wg.Done()
			for i := 0; i < connsPer; i++ {
				resp, err := workload.Get(srv.Network(), 80, user, "pw", "/store")
				if err != nil || resp.Status != 200 {
					errs <- fmt.Errorf("%s conn %d: %+v %v", user, i, resp, err)
					return
				}
				if want := fmt.Sprintf("%d", i); string(resp.Body) != want {
					errs <- fmt.Errorf("%s conn %d: counter = %q, want %q (session split?)",
						user, i, resp.Body, want)
					return
				}
			}
		}(user)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Structural pinning: one worker process per user...
	for _, user := range users {
		procs, ok := observed.Load(user)
		if !ok {
			t.Fatalf("no worker observed %s", user)
		}
		n := 0
		procs.(*sync.Map).Range(func(_, _ any) bool { n++; return true })
		if n != 1 {
			t.Errorf("%s served by %d worker replicas, want exactly 1", user, n)
		}
	}
	// ...and one owning shard per session key (loops are quiescent now).
	spread := srv.Demux.sessionShardSpread()
	if len(spread) != nUsers {
		t.Fatalf("session table holds %d keys, want %d", len(spread), nUsers)
	}
	for key, n := range spread {
		if n != 1 {
			t.Errorf("session %v present in %d shards, want exactly 1", key, n)
		}
	}
}

// TestLoginReplyTokenMatching pins the async-login matching contract:
// verdicts pair with requests by the echoed token, so a login whose reply
// was silently dropped (unreliable sends, §4) strands only its own
// connections — a later reply can never hand its identity to a different
// credential pair, and stray or garbled replies match nothing.
func TestLoginReplyTokenMatching(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(36))
	dm := newDemux(sys, 1<<40, []handle.Handle{1 << 41}, 1, 0, 0, 0, 0) // dangling service handles
	s := dm.shards[0]

	mk := func(user string) *dconn {
		uC := s.proc.Open(nil).Handle()
		cs := &dconn{
			uC:  s.proc.Port(uC),
			req: &httpmsg.Request{Headers: map[string]string{"authorization": user + " pw"}},
		}
		s.conns.put(uC, cs)
		return cs
	}
	csA, csB := mk("alice"), mk("bob")
	s.authenticate(csA) // token 1 (the idd.Login send vanishes: dangling port)
	s.authenticate(csB) // token 2
	if len(s.pendingByTok) != 2 {
		t.Fatalf("pending logins = %d, want 2", len(s.pendingByTok))
	}

	// Only bob's reply arrives. Alice's must stay pending, untouched.
	uT, uG := s.proc.NewHandle(), s.proc.NewHandle()
	bobReply := wire.NewWriter(idd.OpLoginR).U64(2).Byte(1).
		String("1002").Handle(uT).Handle(uG).Done()
	s.handleLoginReply(&kernel.Delivery{Port: s.loginReply.Handle(), Data: bobReply})
	if csB.id.UID != "1002" {
		t.Fatalf("bob's identity = %q, want 1002", csB.id.UID)
	}
	if csA.id.UID != "" {
		t.Fatalf("alice received an identity (%q) from bob's reply", csA.id.UID)
	}
	if len(s.pendingByTok) != 1 {
		t.Fatalf("alice's login should still be pending")
	}

	// A duplicate of bob's reply and a garbled delivery match nothing.
	s.handleLoginReply(&kernel.Delivery{Port: s.loginReply.Handle(), Data: bobReply})
	s.handleLoginReply(&kernel.Delivery{Port: s.loginReply.Handle(), Data: []byte{idd.OpLoginR, 1}})
	if len(s.pendingByTok) != 1 || csA.id.UID != "" {
		t.Fatal("stray replies must not touch other pending logins")
	}

	// Alice's own (failed) verdict settles her waiters.
	aliceReply := wire.NewWriter(idd.OpLoginR).U64(1).Byte(0).
		String("").Handle(handle.None).Handle(handle.None).Done()
	s.handleLoginReply(&kernel.Delivery{Port: s.loginReply.Handle(), Data: aliceReply})
	if len(s.pendingByTok) != 0 {
		t.Fatal("alice's login should be settled")
	}
}

// TestPinnedSessionProbesOnTimer drives handoff and the shard's timer by
// hand for one pinned session whose registration never arrives, and pins
// the retry clock: new connections alone re-send nothing, the parked queue is
// capped at maxParkedPerSession with 503s beyond it, retryAfter brings
// exactly one probe — the OLDEST waiter, as a fresh start to the SAME
// replica — and a late registration drains the rest. A pin nobody waits
// on is dropped on its clock. The timers are only ever advanced forward:
// a deadline armed at or before the latest advance fires on the next one.
func TestPinnedSessionProbesOnTimer(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(37))
	dm := newDemux(sys, 1<<40, []handle.Handle{1 << 41}, 1, 0, 0, 0, 0) // dangling service handles
	s := dm.shards[0]
	// Two replicas, each a real port: the probe must reach the pinned one,
	// where a fresh deal would go to the other.
	fake := sys.NewProcess("fake-worker")
	var replicas []*kernel.Port
	for i := 0; i < 2; i++ {
		p := fake.Open(nil)
		if err := p.SetLabel(label.Empty(label.L3)); err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, p)
	}
	s.workers["svc"] = []handle.Handle{replicas[0].Handle(), replicas[1].Handle()}
	verif := s.proc.NewHandle()
	s.verif["svc"] = []handle.Handle{verif}

	id := idd.Identity{UID: "9", UT: s.proc.NewHandle(), UG: s.proc.NewHandle()}
	mk := func(user string) *dconn {
		uC := s.proc.Open(nil).Handle()
		cs := &dconn{
			uC: s.proc.Port(uC),
			req: &httpmsg.Request{Path: "/svc",
				Headers: map[string]string{"authorization": user + " pw"}},
			id: id,
		}
		cs.buf = []byte("GET /svc HTTP/1.0\r\n\r\n")
		s.conns.put(uC, cs)
		return cs
	}
	// recvStart returns the connection carried by the one start queued at
	// p, or handle.None when p holds nothing.
	recvStart := func(p *kernel.Port) handle.Handle {
		t.Helper()
		d, _ := p.TryRecv()
		if d == nil {
			return handle.None
		}
		st, ok := parseStart(d)
		if !ok {
			t.Fatalf("replica received op %d, want opStart", d.Data[0])
		}
		if extra, _ := p.TryRecv(); extra != nil {
			t.Fatal("replica received more than one start")
		}
		return st.Conn
	}

	// The dealer pins replica 0 and sends the first start.
	s.handoff(mk("u"))
	key := sessionKey{"u", "svc"}
	e, ok := s.sessions.Peek(key)
	if !ok || e.port != handle.None || e.replica != replicas[0].Handle() {
		t.Fatalf("dealer should pin replica 0, entry %+v", e)
	}
	if err := s.out.Flush(); err != nil {
		t.Fatal(err)
	}
	if recvStart(replicas[0]) == handle.None {
		t.Fatal("dealer's start missing")
	}
	due := e.timer.When()

	const flood = 600
	var parked []*dconn
	fails := 0
	for i := 0; i < flood; i++ {
		cs := mk("u")
		s.handoff(cs)
		if s.conns.get(cs.uC.Handle()) == nil {
			fails++
		} else {
			parked = append(parked, cs)
		}
	}
	s.lp.AdvanceTimers(due.Add(-2 * time.Millisecond))
	if n := s.out.Len(); n != 0 {
		t.Errorf("%d connections before retryAfter re-sent %d messages, want 0", flood, n)
	}
	if got := len(e.waiters); got != maxParkedPerSession {
		t.Errorf("parked waiters = %d, want capped at %d", got, maxParkedPerSession)
	}
	if want := flood - maxParkedPerSession; fails != want {
		t.Errorf("503s = %d, want %d", fails, want)
	}

	// retryAfter passes with no registration: exactly one probe, the
	// oldest waiter, to the pinned replica; the clock re-arms.
	s.lp.AdvanceTimers(due.Add(time.Millisecond))
	if n := s.out.Len(); n != 1 {
		t.Fatalf("timer sent %d messages, want exactly one probe", n)
	}
	if err := s.out.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := recvStart(replicas[0]); got != parked[0].uC.Handle() {
		t.Errorf("probe carried conn %v, want the oldest waiter %v", got, parked[0].uC.Handle())
	}
	if got := recvStart(replicas[1]); got != handle.None {
		t.Error("probe went to the unpinned replica")
	}
	if !e.timer.Armed() {
		t.Error("pin's clock not re-armed after the probe")
	}

	// A (late) registration binds the pin and drains the other waiters via
	// the continuation path.
	uW := s.proc.Open(nil).Handle()
	s.handleSession(&kernel.Delivery{Port: s.sessionPort.Handle(),
		Data: encodeSession("u", "svc", uW),
		V:    label.New(label.L3, label.Entry{H: verif, L: label.L0})})
	if got, want := s.out.Len(), maxParkedPerSession-1; got != want {
		t.Errorf("registration drained %d connections, want %d", got, want)
	}
	if e.port != uW || e.waiters != nil || e.timer != nil {
		t.Errorf("entry after registration = %+v, want bound with no waiters and no clock", e)
	}
	if dm.ConnCount() != 0 {
		t.Errorf("ConnCount = %d after drain, want 0", dm.ConnCount())
	}

	// A pin nobody waits on is dropped on its clock.
	s.handoff(mk("v"))
	keyV := sessionKey{"v", "svc"}
	ev, ok := s.sessions.Peek(keyV)
	if !ok || ev.port != handle.None {
		t.Fatalf("fresh user should be pinned, entry %+v", ev)
	}
	s.lp.AdvanceTimers(ev.timer.When().Add(time.Millisecond))
	if _, ok := s.sessions.Peek(keyV); ok {
		t.Error("pin with no waiters survived its clock")
	}
}

// TestSessionRegistrationRequiresProof pins the session-hijack fix: a
// session-port registration must prove the service's launcher-issued
// verification handle, exactly like worker registration — otherwise any
// process that learns the (published) session-port handle could route a
// user's connections, raw credentials and uC capabilities to itself.
func TestSessionRegistrationRequiresProof(t *testing.T) {
	var observed sync.Map
	srv, err := Launch(Config{Seed: 38, Shards: 1,
		Services: []Service{{Name: "store", Handler: storeCount(&observed)}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	if err := srv.AddUser("u", "p", "1"); err != nil {
		t.Fatal(err)
	}
	// Establish the real session.
	if r, err := workload.Get(srv.Network(), 80, "u", "p", "/store"); err != nil || string(r.Body) != "0" {
		t.Fatalf("first request: %+v %v", r, err)
	}

	// The attacker forges a registration for u pointing at its own port.
	attacker := srv.Sys.NewProcess("attacker")
	aPort := attacker.Open(nil)
	sessPort, _ := srv.Sys.Env(EnvDemuxSession)
	if err := attacker.Port(sessPort).Send(encodeSession("u", "store", aPort.Handle()),
		&kernel.SendOpts{DecontSend: kernel.Grant(aPort.Handle())}); err != nil {
		t.Fatal(err)
	}

	// u's follow-up must reach the REAL session (counter continues), and the
	// attacker must receive nothing.
	r, err := workload.Get(srv.Network(), 80, "u", "p", "/store")
	if err != nil || string(r.Body) != "1" {
		t.Fatalf("follow-up after forged registration: %+v %v (session hijacked?)", r, err)
	}
	if d, _ := attacker.TryRecv(); d != nil {
		t.Fatalf("attacker received a routed connection: %v", d.Data)
	}
}

// TestForwardedConnKeepsDeadline pins one clock per request across demux
// shards: a connection whose user another shard owns is forwarded with the
// forwarder's remaining time, and the owner arms its deadline from that.
// A fresh RequestDeadline on the owner would let every forwarded request
// live up to twice as long as Config.RequestDeadline promises.
func TestForwardedConnKeepsDeadline(t *testing.T) {
	const reqDeadline = 10 * time.Second
	sys := kernel.NewSystem(kernel.WithSeed(39))
	dm := newDemux(sys, 1<<40, []handle.Handle{1 << 41}, 2, 0, 0, reqDeadline, 0) // dangling service handles
	fwd, owner := dm.shards[0], dm.shards[1]
	user := ""
	for i := 0; user == ""; i++ {
		if u := fmt.Sprintf("u%d", i); shard.Of(u, 2) == owner.idx {
			user = u
		}
	}

	// A connection with 2 s of its deadline left reads its request on the
	// forwarder, which parses it and forwards it to the owner.
	uC := fwd.proc.Open(nil).Handle()
	cs := &dconn{uC: fwd.proc.Port(uC)}
	fwd.conns.put(uC, cs)
	cs.deadline = fwd.lp.Timer(func(time.Time) {})
	cs.deadline.Arm(time.Now().Add(2 * time.Second))
	want := cs.deadline.When()
	req := "GET /svc HTTP/1.0\r\nauthorization: " + user + " pw\r\n\r\n"
	fwd.dispatch(&kernel.Delivery{Port: fwd.notifyPort.Handle(),
		Data: wire.NewWriter(netd.OpReadReply).Byte(0).String(req).Handle(uC).Done()})
	if err := fwd.out.Flush(); err != nil {
		t.Fatal(err)
	}

	d, _ := owner.lp.ForwardPort().TryRecv()
	if d == nil {
		t.Fatal("the owner received no forwarded connection")
	}
	owner.dispatch(d)
	if owner.conns.len() != 1 {
		t.Fatalf("owner tracks %d connections, want the forwarded one", owner.conns.len())
	}
	for _, got := range owner.conns.m {
		if got.deadline == nil || !got.deadline.Armed() {
			t.Fatal("the owner armed no deadline")
		}
		// The wire carries whole milliseconds, and the hop itself takes a
		// little time; a fresh clock would be 8 s off.
		if diff := got.deadline.When().Sub(want); diff < -time.Millisecond || diff > 100*time.Millisecond {
			t.Fatalf("owner's deadline is %v from the forwarder's, want the same clock", diff)
		}
	}
}
