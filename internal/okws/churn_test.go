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

	"asbestos/internal/httpmsg"
	"asbestos/internal/idd"
	"asbestos/internal/netd"
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
	req := &httpmsg.Request{Method: "GET", Path: path,
		Headers: map[string]string{"authorization": user + " " + pass}}
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
// stack is warm, connect-per-request traffic must leave Sys.Handles()
// exactly where it was. Every connection opens ports — netd's connection
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

	wires := []struct {
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

	for _, wire := range wires {
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
				base := settledHandles(t, srv)
				for i := 0; i < tc.churn; i++ {
					tc.conn(t, dial, tc.warm+i)
				}
				if got := settledHandles(t, srv); got != base {
					t.Fatalf("Handles() = %d after %d connections, want the warm baseline %d (%+.2f per connection)",
						got, tc.churn, base, float64(got-base)/float64(tc.churn))
				}
			})
		}
	}
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
