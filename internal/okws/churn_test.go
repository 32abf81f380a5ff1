package okws

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"asbestos/internal/buffered"
	"asbestos/internal/handle"
	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/netd"
	"asbestos/internal/wire"
	"asbestos/internal/workload"
)

// churnGet issues one connect-per-request GET over a fresh connection from
// dial and returns the response status.
func churnGet(t *testing.T, dial func() (io.ReadWriteCloser, error), user, pass, path string) int {
	t.Helper()
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return exchange(t, c, user, pass, path, false)
}

// exchange writes one GET as user on c, asking to keep the connection
// open when keepAlive is set, and returns the status of the response.
func exchange(t *testing.T, c io.ReadWriter, user, pass, path string, keepAlive bool) int {
	t.Helper()
	req := &httpmsg.Request{Method: "GET", Path: path,
		Headers: map[string]string{"authorization": user + " " + pass}}
	if keepAlive {
		req.Headers["connection"] = "keep-alive"
	}
	if _, err := c.Write(httpmsg.FormatRequest(req)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	chunk := make([]byte, 4096)
	for {
		resp, _, complete, err := httpmsg.ParseResponse(buf)
		if err != nil {
			t.Fatal(err)
		}
		if complete {
			return resp.Status
		}
		n, err := c.Read(chunk)
		if err != nil {
			t.Fatalf("GET %s as %s: read: %v", path, user, err)
		}
		buf = append(buf, chunk[:n]...)
	}
}

// TestHandlesFlatUnderChurn is the handle half of the churn test: once a
// stack is warm, connect-per-request traffic must leave Sys.Handles(), and
// the ring chunks real-socket connections draw, exactly where they were. Every connection opens ports — netd's connection
// port, the demux's login reply port, a worker event process's session and
// reply ports — and each must leave the handle table when its connection,
// login or event process ends, whatever way the connection went: a cached
// session, an evicted one, an ephemeral service, a wrong password, an
// unknown user, or no request at all. It runs on the simulated wire and,
// where the platform has one, through a real socket.
func TestHandlesFlatUnderChurn(t *testing.T) {
	type churnCase struct {
		name  string
		cfg   Config
		users int
		// conn drives the i-th connection of the case.
		conn func(t *testing.T, dial func() (io.ReadWriteCloser, error), i int)
		// warm and churn are the connection counts before and after the
		// baseline is read.
		warm, churn int
	}
	get := func(path, pass string, users int, want int) func(*testing.T, func() (io.ReadWriteCloser, error), int) {
		return func(t *testing.T, dial func() (io.ReadWriteCloser, error), i int) {
			if got := churnGet(t, dial, fmt.Sprintf("c%03d", i%users), pass, path); got != want {
				t.Fatalf("connection %d: status %d, want %d", i, got, want)
			}
		}
	}
	noLockout := idd.Options{Ladder: []idd.BackoffRung{}}
	echo := []Service{{Name: "echo", Handler: echoBody}}
	cases := []churnCase{
		{name: "cached", users: 16, warm: 16, churn: 64,
			cfg:  Config{Services: echo},
			conn: get("/echo", "p", 16, 200)},
		{name: "evicted", users: 200, warm: 200, churn: 200,
			cfg:  Config{SessionTableCap: 64, Services: echo},
			conn: get("/echo", "p", 200, 200)},
		{name: "ephemeral", users: 16, warm: 16, churn: 64,
			cfg: Config{IDCacheCap: 1, Services: []Service{
				{Name: "eph", Handler: echoBody, EphemeralSessions: true}}},
			conn: get("/eph", "p", 16, 200)},
		{name: "wrong-password", users: 4, warm: 8, churn: 64,
			cfg:  Config{Services: echo},
			conn: get("/echo", "nope", 4, 401)},
		{name: "unknown-user", users: 0, warm: 8, churn: 64,
			cfg: Config{Services: echo},
			conn: func(t *testing.T, dial func() (io.ReadWriteCloser, error), i int) {
				if got := churnGet(t, dial, fmt.Sprintf("ghost%d", i), "p", "/echo"); got != 401 {
					t.Fatalf("connection %d: status %d, want 401", i, got)
				}
			}},
		{name: "empty", users: 0, warm: 8, churn: 64,
			cfg: Config{Services: echo},
			conn: func(t *testing.T, dial func() (io.ReadWriteCloser, error), i int) {
				c, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				c.Close()
			}},
	}

	for _, wire := range churnWires {
		for _, tc := range cases {
			t.Run(wire.name+"/"+tc.name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.Seed, cfg.Shards, cfg.IddOptions = 35, 2, noLockout
				srv, err := Launch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Stop)
				for u := 0; u < tc.users; u++ {
					if err := srv.AddUser(fmt.Sprintf("c%03d", u), "p", fmt.Sprint(500+u)); err != nil {
						t.Fatal(err)
					}
				}
				dial := wire.dialer(t, srv)
				for i := 0; i < tc.warm; i++ {
					tc.conn(t, dial, i)
				}
				base, chunks := settledHandles(t, srv), buffered.ChunksOutstanding()
				for i := 0; i < tc.churn; i++ {
					tc.conn(t, dial, tc.warm+i)
				}
				if got := settledHandles(t, srv); got != base {
					t.Fatalf("Handles() = %d after %d connections, want the warm baseline %d (%+.2f per connection)",
						got, tc.churn, base, float64(got-base)/float64(tc.churn))
				}
				eventually(t, func() error {
					if got := buffered.ChunksOutstanding(); got != chunks {
						return fmt.Errorf("%d ring chunks outstanding after %d connections, want the warm baseline %d", got, tc.churn, chunks)
					}
					return nil
				})
			})
		}
	}
}

// churnWires are the two wires the churn tests dial: the simulated one
// and, where the platform has one, a real socket.
var churnWires = []struct {
	name   string
	dialer func(t *testing.T, srv *Server) func() (io.ReadWriteCloser, error)
}{
	{"simulated", func(t *testing.T, srv *Server) func() (io.ReadWriteCloser, error) {
		return func() (io.ReadWriteCloser, error) { return srv.Network().Dial(80) }
	}},
	{"tcp", func(t *testing.T, srv *Server) func() (io.ReadWriteCloser, error) {
		ln, err := srv.ListenTCP("127.0.0.1:0")
		if errors.Is(err, netd.ErrTCPUnsupported) {
			t.Skip(err)
		}
		if err != nil {
			t.Fatal(err)
		}
		return func() (io.ReadWriteCloser, error) {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err == nil {
				c.SetDeadline(time.Now().Add(30 * time.Second))
			}
			return c, err
		}
	}},
}

// settledHandles waits until every connection is gone from netd and the
// demux, every worker event process is one the demux's session table still
// names, and the handle count has held still for a while, then returns it:
// teardown messages (netd closes, session evictions, event-process exits)
// are asynchronous, so the count is only meaningful once they have landed.
func settledHandles(t *testing.T, srv *Server) int {
	t.Helper()
	const still = 20 // consecutive equal readings, 1 ms apart
	eps := func() int {
		n := 0
		for _, w := range srv.Workers() {
			n += w.SessionCount()
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	n, same := -1, 0
	for same < still {
		if time.Now().After(deadline) {
			t.Fatalf("stack never settled: netd holds %d connections, demux tracks %d and %d sessions, workers %d event processes, %d handles",
				srv.Netd.Injector().ConnCount(), srv.Demux.ConnCount(), srv.Demux.SessionCount(), eps(), srv.Sys.Handles())
		}
		time.Sleep(time.Millisecond)
		h := srv.Sys.Handles()
		if h != n || srv.Netd.Injector().ConnCount() != 0 || srv.Demux.ConnCount() != 0 ||
			eps() != srv.Demux.SessionCount() {
			n, same = h, 0
			continue
		}
		same++
	}
	return n
}

// TestOverlongSessionRefused pins the session-record rule: a session whose
// metadata would reach sessionDataAddr is refused with 500 on every
// request, not served once and stranded on the next, and leaves no handle
// or event process behind. The stack runs with an idle timeout so a
// stranded request ends its connection instead of hanging the test.
func TestOverlongSessionRefused(t *testing.T) {
	srv, err := Launch(Config{Seed: 44, Shards: 2, IdleTimeout: 3 * time.Second,
		Services: []Service{{Name: "store", Handler: storeCount(&sync.Map{})}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	long := strings.Repeat("u", 600)
	for _, u := range []string{"short", long} {
		if err := srv.AddUser(u, "p", "1"); err != nil {
			t.Fatal(err)
		}
	}
	dial := func() (io.ReadWriteCloser, error) { return srv.Network().Dial(80) }
	if got := churnGet(t, dial, "short", "p", "/store"); got != 200 {
		t.Fatalf("short user: status %d, want 200", got)
	}
	// A login mints the user's taint and grant handles, which outlive any
	// session; log the long user in once, to a service that does not
	// exist, so the baseline holds them.
	if got := churnGet(t, dial, long, "p", "/nosuch"); got != 404 {
		t.Fatalf("600-byte user, unknown service: status %d, want 404", got)
	}
	base := settledHandles(t, srv)
	baseEPs := srv.Workers()[0].SessionCount()
	for i := 0; i < 2; i++ {
		if got := churnGet(t, dial, long, "p", "/store"); got != 500 {
			t.Fatalf("600-byte user, request %d: status %d, want 500", i, got)
		}
	}
	if got := settledHandles(t, srv); got != base {
		t.Errorf("Handles() = %d after the refusals, want the baseline %d", got, base)
	}
	if got := srv.Workers()[0].SessionCount(); got != baseEPs {
		t.Errorf("worker holds %d event processes after the refusals, want %d", got, baseEPs)
	}
	if got := churnGet(t, dial, "short", "p", "/store"); got != 200 {
		t.Fatalf("short user after the refusals: status %d, want 200", got)
	}
}

// TestHandlerPanicIsolated pins that untrusted handler code dies alone: a
// handler that panics for user1 answers user1 500 and closes its
// connection, while user2, served by the same worker, gets 200 and keeps
// its session state across the panics. user1's event process yields as
// after any request, so its session stays cached, and the panics leave no
// handle or event process behind.
func TestHandlerPanicIsolated(t *testing.T) {
	count := storeCount(&sync.Map{})
	srv, err := Launch(Config{Seed: 45, Shards: 1, Services: []Service{{Name: "store",
		Handler: func(c *Ctx, req *httpmsg.Request) *httpmsg.Response {
			if c.User == "user1" {
				panic("boom")
			}
			return count(c, req)
		}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	for i, u := range []string{"user1", "user2"} {
		if err := srv.AddUser(u, "p", fmt.Sprint(1001+i)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(user string) *httpmsg.Response {
		t.Helper()
		r, err := workload.Get(srv.Network(), 80, user, "p", "/store")
		if err != nil {
			t.Fatalf("GET as %s: %v", user, err)
		}
		return r
	}
	if r := get("user2"); r.Status != 200 || string(r.Body) != "0" {
		t.Fatalf("user2's first request: %d %q, want 200 \"0\"", r.Status, r.Body)
	}
	if r := get("user1"); r.Status != 500 {
		t.Fatalf("user1's panicking request: %d, want 500", r.Status)
	}
	base := settledHandles(t, srv)
	eps := srv.Workers()[0].SessionCount()
	if eps != 2 {
		t.Fatalf("worker holds %d event processes, want both sessions cached", eps)
	}
	for i := 1; i <= 4; i++ {
		if r := get("user1"); r.Status != 500 {
			t.Fatalf("user1, request %d: %d, want 500", i, r.Status)
		}
		if r := get("user2"); r.Status != 200 || string(r.Body) != fmt.Sprint(i) {
			t.Fatalf("user2, request %d: %d %q, want 200 %q", i, r.Status, r.Body, fmt.Sprint(i))
		}
	}
	if got := settledHandles(t, srv); got != base {
		t.Errorf("Handles() = %d after the panics, want the baseline %d", got, base)
	}
	if got := srv.Workers()[0].SessionCount(); got != eps {
		t.Errorf("worker holds %d event processes after the panics, want %d", got, eps)
	}
}

// eventually polls check every millisecond until it returns nil, and fails
// the test with its last error if that takes over 10 s.
func eventually(t *testing.T, check func() error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := check()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNetdLabelsFollowLiveConnections pins how long netd holds privilege.
// A netd shard holds uT ⋆, and receives at uT 3, only while a connection it
// owns is tainted with uT. It holds a reply port's ⋆ only while the
// exchange on that port is open. The one exception is a listener's notify
// port, whose ⋆ lives as long as the listener.
//
// Connect-per-request traffic for 20 users, then for 20 more, on a session
// table that holds 16, leaves each shard's labels the same after the
// second round as after the first. The receive label is empty, and the
// send label holds ⋆ for fixed ports only. With one keep-alive connection
// per user open, the receive labels together hold exactly those users'
// uT. Each send label adds three ⋆ entries per connection the shard owns:
// the user's uT, the connection port and the parked read's reply port.
// Closing the connections brings the labels back.
func TestNetdLabelsFollowLiveConnections(t *testing.T) {
	const users, keep = 40, 6
	var uts sync.Map // user → uT, as the worker sees it
	cfg := Config{Seed: 46, Shards: 2, SessionTableCap: 16, Services: []Service{{Name: "echo",
		Handler: func(c *Ctx, req *httpmsg.Request) *httpmsg.Response {
			uts.Store(c.User, c.UT)
			return echoBody(c, req)
		}}}}
	user := func(i int) string { return fmt.Sprintf("c%03d", i) }
	for _, w := range churnWires {
		t.Run(w.name, func(t *testing.T) {
			srv, err := Launch(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Stop)
			for i := 0; i < users; i++ {
				if err := srv.AddUser(user(i), "p", fmt.Sprint(500+i)); err != nil {
					t.Fatal(err)
				}
			}
			dial := w.dialer(t, srv)
			procs := srv.Netd.Processes()
			churn := func(from, to int) []*label.Label {
				t.Helper()
				for round := 0; round < 2; round++ {
					for i := from; i < to; i++ {
						if got := churnGet(t, dial, user(i), "p", "/echo"); got != 200 {
							t.Fatalf("%s: status %d, want 200", user(i), got)
						}
					}
				}
				settledHandles(t, srv)
				sends := make([]*label.Label, len(procs))
				for i, p := range procs {
					if r := p.RecvLabel(); r.Len() != 0 {
						t.Errorf("netd shard %d at quiescence: receive label %v, want no entry", i, r)
					}
					sends[i] = p.SendLabel()
					for _, e := range sends[i].Entries() {
						if e.L != label.Star {
							t.Errorf("netd shard %d at quiescence: send label holds %v at %v, want only ⋆ for fixed ports", i, e.H, e.L)
						}
					}
				}
				return sends
			}
			fixed := churn(0, users/2)
			for i, send := range churn(users/2, users) {
				if !send.Eq(fixed[i]) {
					t.Errorf("netd shard %d: send label %v after 20 more users, want %v", i, send, fixed[i])
				}
			}

			var open []io.ReadWriteCloser
			for i := 0; i < keep; i++ {
				c, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				open = append(open, c)
				if got := exchange(t, c, user(i), "p", "/echo", true); got != 200 {
					t.Fatalf("keep-alive %s: status %d, want 200", user(i), got)
				}
			}
			want := map[handle.Handle]bool{}
			for i := 0; i < keep; i++ {
				uT, _ := uts.Load(user(i))
				want[uT.(handle.Handle)] = true
			}
			eventually(t, func() error {
				seen := 0
				for i, p := range procs {
					recv, send := p.RecvLabel(), p.SendLabel()
					for _, e := range recv.Entries() {
						if !want[e.H] || e.L != label.L3 || send.Get(e.H) != label.Star {
							return fmt.Errorf("netd shard %d: receive entry %v at %v (send %v), want a connected user's uT at 3 and ⋆",
								i, e.H, e.L, send.Get(e.H))
						}
					}
					seen += recv.Len()
					extra := 0
					for _, e := range send.Entries() {
						if fixed[i].Get(e.H) != label.Star {
							if e.L != label.Star {
								return fmt.Errorf("netd shard %d: send label holds %v at %v", i, e.H, e.L)
							}
							extra++
						}
					}
					if extra != 3*recv.Len() {
						return fmt.Errorf("netd shard %d: %d ⋆ entries beyond its fixed ports for %d connected users, want 3 per connection",
							i, extra, recv.Len())
					}
				}
				if seen != keep {
					return fmt.Errorf("netd receive labels hold %d uT entries for %d connected users", seen, keep)
				}
				return nil
			})

			for _, c := range open {
				c.Close()
			}
			settledHandles(t, srv)
			for i, p := range procs {
				if r, s := p.RecvLabel(), p.SendLabel(); r.Len() != 0 || !s.Eq(fixed[i]) {
					t.Errorf("netd shard %d after the keep-alive connections closed: receive %v, send %v, want none and %v",
						i, r, s, fixed[i])
				}
			}
		})
	}

	// Replies reach a demux shard on its notify port, named by connection,
	// so only netd may send there. A worker-class process that knows the
	// port's handle holds no ⋆ for it, and the kernel drops what it sends.
	t.Run("forged replies", func(t *testing.T) {
		sys := kernel.NewSystem(kernel.WithSeed(47))
		dm := newDemux(sys, 1<<40, []handle.Handle{1 << 41}, 1, 0, 0, 0, 0) // dangling service handles
		s := dm.shards[0]
		notify := s.notifyPort.Handle()
		uC := s.proc.Open(nil).Handle()
		cs := &dconn{uC: s.proc.Port(uC)}
		s.conns.put(uC, cs)
		readReply := func(conn handle.Handle) []byte {
			return wire.NewWriter(netd.OpReadReply).Byte(0).
				String("GET /echo HTTP/1.0\r\nauthorization: c000 p\r\n\r\n").Handle(conn).Done()
		}
		taintReply := func(conn handle.Handle) []byte {
			return wire.NewWriter(netd.OpAddTaintReply).Byte(1).Handle(conn).Done()
		}

		forger := sys.NewProcess("worker-forger").Port(notify)
		drops := sys.Drops()
		for _, msg := range [][]byte{readReply(uC), taintReply(uC)} {
			if err := forger.Send(msg, nil); err != nil {
				t.Fatal(err)
			}
		}
		if d, _ := s.notifyPort.TryRecv(); d != nil {
			t.Fatalf("a forged reply (op %d) reached the demux", d.Data[0])
		}
		if got := sys.Drops() - drops; got != 2 {
			t.Errorf("the kernel dropped %d forged replies, want 2", got)
		}

		// Replies naming a connection the shard does not track are ignored.
		stray := handle.Handle(1 << 43)
		for _, msg := range [][]byte{readReply(stray), taintReply(stray)} {
			s.dispatch(&kernel.Delivery{Port: notify, Data: msg})
		}
		if dm.ConnCount() != 1 || cs.req != nil || len(cs.buf) != 0 || s.out.Len() != 0 {
			t.Fatalf("a reply for an unknown connection changed the demux: %d connections, request %v, %d bytes read, %d messages out",
				dm.ConnCount(), cs.req, len(cs.buf), s.out.Len())
		}

		// The same reply naming the live connection advances it.
		s.dispatch(&kernel.Delivery{Port: notify, Data: readReply(uC)})
		if cs.req == nil {
			t.Fatal("a read reply naming the live connection did not advance it")
		}
	})
}
