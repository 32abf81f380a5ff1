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
	"asbestos/internal/wire"
	"asbestos/internal/workload"
)

func echoBody(c *Ctx, req *httpmsg.Request) *httpmsg.Response {
	return &httpmsg.Response{Status: 200, Body: []byte("ok " + c.User)}
}

// TestEmptyDeliveryDoesNotPanicDemux is the regression for the
// zero-length-delivery crash: handleConnReply used to read d.Data[0]
// unconditionally, so an empty message to a connection reply port panicked
// the trusted demux. Every demux dispatch path must ignore empty payloads.
func TestEmptyDeliveryDoesNotPanicDemux(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(31))
	dm := newDemux(sys, 1<<40, []handle.Handle{1 << 41}, 2, 0, 0, 0, 0) // dangling service handles
	s := dm.shards[0]

	// A connection mid-header-read, exactly the state the panic needed.
	reply := s.proc.Open(nil).Handle()
	cs := &dconn{uC: s.proc.Port(handle.Handle(1 << 42)), reply: reply}
	s.conns.put(reply, cs)
	for _, data := range [][]byte{nil, {}} {
		s.dispatch(&kernel.Delivery{Port: reply, Data: data})
	}
	if s.conns.get(reply) == nil {
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
	// Teardown finishes when netd's control replies land; poll briefly.
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
		reply := s.proc.Open(nil).Handle()
		cs := &dconn{
			uC:    s.proc.Port(handle.Handle(1 << 43)),
			reply: reply,
			req:   &httpmsg.Request{Headers: map[string]string{"authorization": user + " pw"}},
		}
		s.conns.put(reply, cs)
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

// TestParkedProbeCadenceAndCap drives handoff directly for one pinned
// session whose registration never arrives, and pins the escape-hatch
// arithmetic: exactly one probe per redealAfter arrivals (each a fresh
// start to the SAME pinned replica), the parked queue capped at
// maxParkedPerSession with 503s beyond it, and a late registration
// draining every parked connection.
func TestParkedProbeCadenceAndCap(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(37))
	dm := newDemux(sys, 1<<40, []handle.Handle{1 << 41}, 1, 0, 0, 0, 0) // dangling service handles
	s := dm.shards[0]
	base := handle.Handle(1 << 44)
	s.workers["svc"] = []handle.Handle{base}
	verif := s.proc.NewHandle()
	s.verif["svc"] = []handle.Handle{verif}

	id := idd.Identity{UID: "9", UT: s.proc.NewHandle(), UG: s.proc.NewHandle()}
	mk := func() *dconn {
		reply := s.proc.Open(nil).Handle()
		cs := &dconn{
			uC:    s.proc.Port(s.proc.Open(nil).Handle()),
			reply: reply,
			req: &httpmsg.Request{Path: "/svc",
				Headers: map[string]string{"authorization": "u pw"}},
			id: id,
		}
		cs.raw = []byte("GET /svc HTTP/1.0\r\n\r\n")
		s.conns.put(reply, cs)
		return cs
	}

	// The dealer: pins the replica and sends the first start.
	s.handoff(mk())
	if s.out.Len() != 1 {
		t.Fatalf("dealer should buffer one start, out = %d", s.out.Len())
	}
	key := sessionKey{"u", "svc"}
	if _, ok := s.dealt.Get(key); !ok {
		t.Fatal("dealer should pin the replica")
	}

	const arrivals = 600
	probes, fails := 0, 0
	for i := 1; i <= arrivals; i++ {
		before := s.out.Len()
		cs := mk()
		s.handoff(cs)
		switch {
		case s.out.Len() > before:
			probes++
		default:
			if s.conns.get(cs.reply) == nil {
				fails++
			}
		}
	}
	if want := arrivals / redealAfter; probes != want {
		t.Errorf("probes = %d over %d arrivals, want %d (one per %d)",
			probes, arrivals, want, redealAfter)
	}
	if got := len(s.parked[key].waiters); got != maxParkedPerSession {
		t.Errorf("parked waiters = %d, want capped at %d", got, maxParkedPerSession)
	}
	if want := arrivals - arrivals/redealAfter - maxParkedPerSession; fails != want {
		t.Errorf("503s = %d, want %d", fails, want)
	}

	// A (late) registration drains every parked connection via the pinned
	// continuation path.
	uW := s.proc.Open(nil).Handle()
	before := s.out.Len()
	s.handleSession(&kernel.Delivery{Port: s.sessionPort.Handle(),
		Data: encodeSession("u", "svc", uW),
		V:    label.New(label.L3, label.Entry{H: verif, L: label.L0})})
	if got := s.out.Len() - before; got != maxParkedPerSession {
		t.Errorf("registration drained %d connections, want %d", got, maxParkedPerSession)
	}
	if s.parked[key] != nil {
		t.Error("parked set should be cleared after registration")
	}
	if dm.ConnCount() != 0 {
		t.Errorf("ConnCount = %d after drain, want 0", dm.ConnCount())
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
