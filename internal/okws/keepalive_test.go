package okws_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"asbestos/internal/httpmsg"
	"asbestos/internal/netd"
	"asbestos/internal/okws"
	"asbestos/internal/stats"
	"asbestos/internal/workload"
)

// kaRoundTrip writes one authenticated keep-alive GET on an open byte
// stream and reads back one content-length-framed response.
func kaRoundTrip(t *testing.T, rw io.ReadWriter, user, pass, path string) *httpmsg.Response {
	t.Helper()
	req := &httpmsg.Request{
		Method: "GET",
		Path:   path,
		Headers: map[string]string{
			"authorization": user + " " + pass,
			"connection":    "keep-alive",
		},
	}
	if _, err := rw.Write(httpmsg.FormatRequest(req)); err != nil {
		t.Fatal(err)
	}
	return readResponses(t, rw, 1)[0]
}

// testKeepAlive drives two requests through ONE connection. The second
// response returning the first request's stored data proves both that the
// session survived and that the connection was genuinely reused (a closed
// connection would EOF the second read).
func testKeepAlive(t *testing.T, rw io.ReadWriter) {
	r1 := kaRoundTrip(t, rw, "user1", "pw1", "/store?d=first")
	if r1.Status != 200 {
		t.Fatalf("first request: %d", r1.Status)
	}
	if r1.Headers["connection"] != "keep-alive" {
		t.Fatalf("first response connection header = %q", r1.Headers["connection"])
	}
	r2 := kaRoundTrip(t, rw, "user1", "pw1", "/store")
	if r2.Status != 200 || string(r2.Body) != "first" {
		t.Fatalf("second request on same connection: %d %q", r2.Status, r2.Body)
	}
}

func TestKeepAliveSimulated(t *testing.T) {
	s := launch(t, okws.Service{Name: "store", Handler: storeHandler})
	c, err := s.Network().Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	testKeepAlive(t, c)
}

func TestKeepAliveTCP(t *testing.T) {
	s := launch(t, okws.Service{Name: "store", Handler: storeHandler})
	ln, err := s.ListenTCP("127.0.0.1:0")
	if errors.Is(err, netd.ErrTCPUnsupported) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	sock, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	sock.SetDeadline(time.Now().Add(30 * time.Second))
	testKeepAlive(t, sock)
}

// TestKeepAliveDeclined pins the non-keep-alive path: without the request
// header the server closes after one response exactly as before.
func TestKeepAliveDeclined(t *testing.T) {
	s := launch(t, okws.Service{Name: "store", Handler: storeHandler})
	c, err := s.Network().Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := &httpmsg.Request{
		Method:  "GET",
		Path:    "/store?d=x",
		Headers: map[string]string{"authorization": "user1 pw1"},
	}
	if _, err := c.Write(httpmsg.FormatRequest(req)); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	chunk := make([]byte, 4096)
	for {
		n, err := c.Read(chunk)
		if err == io.EOF {
			break // server closed: the old one-request lifecycle
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, chunk[:n]...)
	}
	resp, _, complete, err := httpmsg.ParseResponse(buf)
	if err != nil || !complete {
		t.Fatalf("response incomplete at EOF: %v", err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if resp.Headers["connection"] == "keep-alive" {
		t.Fatal("server offered keep-alive to a close-mode client")
	}
}

// ipcSpansPerRequest reports how many Figure 9 Kernel-IPC spans (one per
// send, batch send, and receive or checkpoint scan) one call of req costs
// in steady state, and fails unless the count repeats exactly. One P, so
// which messages share a receiver's wake is decided by the code path and
// not by which core ran first; the simulated wire, so no socket timing.
func ipcSpansPerRequest(t *testing.T, prof *stats.Profiler, req func()) int64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const reqs = 40
	for i := 0; i < 5; i++ {
		req() // login, session creation, first park
	}
	var per int64
	for round := 0; round < 3; round++ {
		before := prof.Count(stats.CatKernelIPC)
		for i := 0; i < reqs; i++ {
			req()
		}
		n := prof.Count(stats.CatKernelIPC) - before
		if n%reqs != 0 || (round > 0 && n/reqs != per) {
			t.Fatalf("round %d: %d Kernel-IPC spans over %d requests (previous rounds %d per request): the count does not repeat", round, n, reqs, per)
		}
		per = n / reqs
	}
	return per
}

// TestKernelIPCSpansPerRequest pins the length of the request path in the
// unit Figure 9 charges for: kernel IPC operations per /echo request. The
// numbers are exact and are the regression gate for "every wakeup carries
// information" — an acknowledgement nobody reads costs the sender's send,
// the receiver's scan and the wake between them, and shows up here as a
// higher count. Before writes and closes went unacknowledged the same
// measurement gave keepAliveBefore and connectBefore; the worker's write
// leaving in one batch with the park's read or the close took one more
// span off each.
func TestKernelIPCSpansPerRequest(t *testing.T) {
	const (
		keepAlive, keepAliveBefore = 12, 18
		connect, connectBefore     = 36, 45
	)
	prof := stats.NewProfiler()
	s, err := okws.Launch(okws.Config{Seed: 5, Shards: 1, Profiler: prof,
		Services: []okws.Service{{Name: "echo", Handler: echoHandler}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	if err := s.AddUser("user1", "pw1", "1001"); err != nil {
		t.Fatal(err)
	}

	c, err := s.Network().Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := ipcSpansPerRequest(t, prof, func() {
		if r := kaRoundTrip(t, c, "user1", "pw1", "/echo?n=11"); r.Status != 200 {
			t.Fatalf("keep-alive /echo: %d", r.Status)
		}
	})
	if got != keepAlive {
		t.Errorf("keep-alive /echo: %d Kernel-IPC spans per request, want %d (was %d with acknowledged writes)", got, keepAlive, keepAliveBefore)
	}

	got = ipcSpansPerRequest(t, prof, func() {
		r, err := workload.Get(s.Network(), 80, "user1", "pw1", "/echo?n=11")
		if err != nil || r.Status != 200 {
			t.Fatalf("connect-per-request /echo: %v %v", r, err)
		}
	})
	if got != connect {
		t.Errorf("connect-per-request /echo: %d Kernel-IPC spans per request, want %d (was %d with acknowledged writes and closes)", got, connect, connectBefore)
	}
}

// readResponses reads n content-length-framed responses from r, failing
// the test on a read error or a close before the n-th.
func readResponses(t *testing.T, r io.Reader, n int) []*httpmsg.Response {
	t.Helper()
	var out []*httpmsg.Response
	var buf []byte
	chunk := make([]byte, 4096)
	for len(out) < n {
		resp, used, complete, err := httpmsg.ParseResponse(buf)
		if err != nil {
			t.Fatal(err)
		}
		if complete {
			out = append(out, resp)
			buf = buf[used:]
			continue
		}
		k, err := r.Read(chunk)
		if err != nil {
			t.Fatalf("after %d of %d responses: read: %v", len(out), n, err)
		}
		buf = append(buf, chunk[:k]...)
	}
	return out
}

// TestPipelinedRequestsInOneSegment pins the worker's read path: it serves
// every request in the bytes it holds and parks the connection on the
// rest. Two keep-alive requests in one write get both answers, in order; a
// request whose header arrives in three writes is assembled by the demux's
// continuation reads on a fresh connection, and by the parked connection's
// leftover on a later request. The stack runs with an idle timeout so a
// request nobody answers ends the connection instead of hanging the test.
func TestPipelinedRequestsInOneSegment(t *testing.T) {
	store := func(user, query string) []byte {
		return httpmsg.FormatRequest(&httpmsg.Request{Method: "GET", Path: "/store" + query,
			Headers: map[string]string{
				"authorization": user + " pw" + user[len(user)-1:],
				"connection":    "keep-alive",
			}})
	}
	// write sends parts in separate writes, 20 ms apart, so each arrives
	// on its own.
	write := func(t *testing.T, w io.Writer, parts ...[]byte) {
		t.Helper()
		for i, part := range parts {
			if i > 0 {
				time.Sleep(20 * time.Millisecond)
			}
			if _, err := w.Write(part); err != nil {
				t.Fatal(err)
			}
		}
	}
	thirds := func(b []byte) [][]byte {
		return [][]byte{b[:len(b)/3], b[len(b)/3 : 2*len(b)/3], b[2*len(b)/3:]}
	}
	expect := func(t *testing.T, resps []*httpmsg.Response, bodies ...string) {
		t.Helper()
		for i, r := range resps {
			if r.Status != 200 || string(r.Body) != bodies[i] || r.Headers["connection"] != "keep-alive" {
				t.Errorf("response %d: %d %q (connection %q), want 200 %q keep-alive",
					i, r.Status, r.Body, r.Headers["connection"], bodies[i])
			}
		}
	}
	wires := []struct {
		name   string
		dialer func(t *testing.T, s *okws.Server) func() io.ReadWriteCloser
	}{
		{"simulated", func(t *testing.T, s *okws.Server) func() io.ReadWriteCloser {
			return func() io.ReadWriteCloser {
				c, err := s.Network().Dial(80)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
		}},
		{"tcp", func(t *testing.T, s *okws.Server) func() io.ReadWriteCloser {
			ln, err := s.ListenTCP("127.0.0.1:0")
			if errors.Is(err, netd.ErrTCPUnsupported) {
				t.Skip(err)
			}
			if err != nil {
				t.Fatal(err)
			}
			return func() io.ReadWriteCloser {
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				c.SetDeadline(time.Now().Add(30 * time.Second))
				return c
			}
		}},
	}
	for _, wire := range wires {
		t.Run(wire.name, func(t *testing.T) {
			s, err := okws.Launch(okws.Config{Seed: 5, Shards: 1, IdleTimeout: 3 * time.Second,
				Services: []okws.Service{{Name: "store", Handler: storeHandler}}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Stop)
			for i := 1; i <= 3; i++ {
				if err := s.AddUser(fmt.Sprintf("user%d", i), fmt.Sprintf("pw%d", i), fmt.Sprint(1000+i)); err != nil {
					t.Fatal(err)
				}
			}
			dial := wire.dialer(t, s)

			t.Run("two requests, one write", func(t *testing.T) {
				c := dial()
				defer c.Close()
				write(t, c, append(store("user1", "?d=first"), store("user1", "")...))
				expect(t, readResponses(t, c, 2), "", "first")
			})
			t.Run("first header in three writes", func(t *testing.T) {
				c := dial()
				defer c.Close()
				write(t, c, thirds(store("user2", "?d=split"))...)
				expect(t, readResponses(t, c, 1), "")
				write(t, c, store("user2", ""))
				expect(t, readResponses(t, c, 1), "split")
			})
			t.Run("second request in three writes", func(t *testing.T) {
				c := dial()
				defer c.Close()
				write(t, c, store("user3", "?d=whole"))
				expect(t, readResponses(t, c, 1), "")
				write(t, c, thirds(store("user3", ""))...)
				expect(t, readResponses(t, c, 1), "whole")
			})
		})
	}
}
