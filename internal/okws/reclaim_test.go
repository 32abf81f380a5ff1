package okws

// Tests for the two bounded-tail reclaim paths: the wall-clock deadline on
// pending logins (a dropped idd request/reply for a QUIET credential pair
// recovers on the clock, not on the user's retry) and the eviction →
// ep_exit notification (a session evicted from the demux's bounded table
// no longer leaves its event process alive in the worker).

import (
	"context"
	"fmt"
	"testing"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/wire"
	"asbestos/internal/workload"
)

// readLoginReq decodes an idd OpLogin request as the fake identity server
// sees it, returning the echoed token.
func readLoginReq(t *testing.T, d *kernel.Delivery) (token uint64, user string) {
	t.Helper()
	op, r := wire.NewReader(d.Data)
	if op != idd.OpLogin {
		t.Fatalf("fake idd received op %d, want OpLogin", op)
	}
	token = r.U64()
	user = r.String()
	_ = r.String() // pass
	_ = r.Handle() // reply
	if r.Err() {
		t.Fatal("malformed login request")
	}
	return token, user
}

// TestPendingLoginDeadlineReissues is the dropped-reply regression for the
// wall-clock deadline (ROADMAP: login-drop deadline): a credential pair
// whose ONLY idd round trip is lost used to wait until its user retried.
// The per-key timer is the login's only retry path: it must re-issue the
// login under a fresh token once retryAfter passes, with no further
// connections, and the late verdict must settle the original waiters.
func TestPendingLoginDeadlineReissues(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(39))
	// A real (but silent) identity server: it receives login requests and
	// never answers — the dropped-reply scenario.
	fakeIdd := sys.NewProcess("fake-idd")
	loginPort := fakeIdd.Open(nil)
	if err := loginPort.SetLabel(label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	dm := newDemux(sys, 1<<40, []handle.Handle{loginPort.Handle()}, 1, 0, 0, 0, 0)
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
	cs := mk("quiet")
	s.authenticate(cs)

	d, err := loginPort.TryRecv()
	if err != nil || d == nil {
		t.Fatalf("original login request missing: %v", err)
	}
	tok1, _ := readLoginReq(t, d)

	// Before the deadline the timer must not re-ask.
	s.lp.AdvanceTimers(time.Now())
	if d, _ := loginPort.TryRecv(); d != nil {
		t.Fatal("timer re-issued a login before the deadline")
	}

	// Past the deadline: a fresh token, same credentials.
	s.lp.AdvanceTimers(time.Now().Add(retryAfter + 10*time.Millisecond))
	d, err = loginPort.TryRecv()
	if err != nil || d == nil {
		t.Fatal("deadline tick did not re-issue the login")
	}
	tok2, user := readLoginReq(t, d)
	if tok2 == tok1 {
		t.Fatalf("re-issue reused token %d", tok1)
	}
	if user != "quiet" {
		t.Fatalf("re-issue for %q, want the stranded pair", user)
	}

	// The verdict for the RE-ISSUED token settles the original waiters.
	uT, uG := s.proc.NewHandle(), s.proc.NewHandle()
	verdict := wire.NewWriter(idd.OpLoginR).U64(tok2).Byte(1).
		String("1042").Handle(uT).Handle(uG).Done()
	s.handleLoginReply(&kernel.Delivery{Port: s.loginReply.Handle(), Data: verdict})
	if cs.id.UID != "1042" {
		t.Fatalf("waiter not settled by the re-issued verdict: UID %q", cs.id.UID)
	}
	if len(s.pendingLogins) != 0 || len(s.pendingByTok) != 0 {
		t.Fatal("pending-login tables not cleared")
	}

	// End to end: with the loops actually running, the armed timer fires on
	// its own — a second stranded login is re-asked within a few ticks,
	// with no further connections for the pair.
	cs2 := mk("quiet2")
	s.authenticate(cs2)
	d, err = loginPort.TryRecv()
	if err != nil || d == nil {
		t.Fatal("second login request missing")
	}
	tok3, _ := readLoginReq(t, d)
	go dm.Run()
	defer dm.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d, err = loginPort.Recv(ctx)
	if err != nil {
		t.Fatal("running loop never re-issued the stranded login")
	}
	tok4, user := readLoginReq(t, d)
	if tok4 == tok3 || user != "quiet2" {
		t.Fatalf("loop re-issue = token %d (was %d) for %q", tok4, tok3, user)
	}
}

// TestEvictionExitsWorkerSession pins the eviction → ep_exit reclaim
// (ROADMAP): a session evicted from the demux's bounded LRU used to leave
// its event process alive in the worker forever. The demux now sends the
// session port an opEvict, and the worker's session count — its live event
// processes — must track the table bound instead of the total user
// population.
func TestEvictionExitsWorkerSession(t *testing.T) {
	const (
		cap   = 4
		users = 12
	)
	srv, err := Launch(Config{Seed: 40, Shards: 1, SessionTableCap: cap,
		Services: []Service{{Name: "echo", Handler: echoBody}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	for i := 0; i < users; i++ {
		if err := srv.AddUser(fmt.Sprintf("ev%02d", i), "p", fmt.Sprintf("%d", 300+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < users; i++ {
		resp, err := workload.Get(srv.Network(), 80, fmt.Sprintf("ev%02d", i), "p", "/echo")
		if err != nil || resp.Status != 200 {
			t.Fatalf("user %d: %+v %v", i, resp, err)
		}
	}

	worker := srv.Workers()[0]
	deadline := time.Now().Add(5 * time.Second)
	for worker.SessionCount() > cap {
		if time.Now().After(deadline) {
			t.Fatalf("worker still holds %d event processes, table cap is %d: evicted sessions leaked",
				worker.SessionCount(), cap)
		}
		time.Sleep(time.Millisecond)
	}

	// An evicted user reconnects through the normal fresh-deal path.
	resp, err := workload.Get(srv.Network(), 80, "ev00", "p", "/echo")
	if err != nil || resp.Status != 200 {
		t.Fatalf("evicted user cannot reconnect: %+v %v", resp, err)
	}
}

// TestSupersededRegistrationReclaimsOldSession covers the other orphan
// source: when a probe duplicates a session's event process and the newer
// registration wins, the demux must evict the loser's EP rather than
// strand it. Driven directly against one shard.
func TestSupersededRegistrationReclaimsOldSession(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(41))
	dm := newDemux(sys, 1<<40, []handle.Handle{1 << 41}, 1, 0, 0, 0, 0)
	s := dm.shards[0]
	verif := s.proc.NewHandle()
	s.verif["svc"] = []handle.Handle{verif}
	proof := label.New(label.L3, label.Entry{H: verif, L: label.L0})

	reg := func(port handle.Handle) {
		s.handleSession(&kernel.Delivery{Port: s.sessionPort.Handle(),
			Data: encodeSession("u", "svc", port), V: proof})
	}
	oldPort := s.proc.Open(nil).Handle()
	newPort := s.proc.Open(nil).Handle()
	reg(oldPort)
	if s.out.Len() != 0 {
		t.Fatalf("first registration buffered %d messages, want 0", s.out.Len())
	}
	reg(newPort)
	if s.out.Len() != 1 {
		t.Fatalf("superseding registration buffered %d messages, want 1 eviction", s.out.Len())
	}
	reg(newPort) // idempotent: same port must not evict itself
	if s.out.Len() != 1 {
		t.Fatalf("re-registering the same port buffered an eviction")
	}
	if e, ok := s.sessions.Get(sessionKey{"u", "svc"}); !ok || e.port != newPort {
		t.Fatalf("session entry %+v, want bound to the newer registration", e)
	}
}
