package netd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/kernel"
)

// waitListening polls until netd's service loop has processed the Listen
// for lport.
func waitListening(t *testing.T, nd *Netd, lport uint16) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if nd.Network().Listening(lport) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("port %d never came up", lport)
}

// readPort drains OpReadReply messages until n bytes (or EOF) arrive.
func readPort(t *testing.T, r *rig, connPort handle.Handle, n int) []byte {
	t.Helper()
	reply := r.replyPort(r.app)
	var got []byte
	for len(got) < n {
		if err := Read(r.app.Port(connPort), reply, n-len(got)); err != nil {
			t.Fatal(err)
		}
		d, err := recvOn(r.app, reply)
		if err != nil {
			t.Fatal(err)
		}
		rr, ok := ParseReadReply(d)
		if !ok {
			t.Fatalf("bad read reply: % x", d.Data)
		}
		if rr.EOF {
			break
		}
		got = append(got, rr.Data...)
	}
	return got
}

// wireClient is the remote end of a connection, on either transport.
type wireClient interface {
	io.ReadWriter
	Close() error
}

// testSlowClientIsolation pushes a large burst to connection 0 — whose
// client never reads a byte — and then serves N−1 well-behaved clients.
// The stalled connection must park only itself (its buffers, its EPOLLOUT
// backlog on the poller), never a shard loop: the other clients' responses
// must all arrive. Runs under -race in CI on every transport via the
// conformance suite.
func testSlowClientIsolation(t *testing.T, r *rig, dial func() (wireClient, error)) {
	t.Helper()
	const (
		nConns   = 6
		bigLen   = 512 * 1024 // > connWindow and > typical socket buffers
		smallLen = 64 * 1024
	)
	clients := make([]wireClient, nConns)
	ports := make([]handle.Handle, nConns)
	for i := 0; i < nConns; i++ {
		c, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		// Each client introduces itself with one id byte so notify order
		// doesn't have to match dial order.
		if _, err := c.Write([]byte{byte('A' + i)}); err != nil {
			t.Fatal(err)
		}
		d, err := recvOn(r.app, r.notify)
		if err != nil {
			t.Fatal(err)
		}
		n, ok := ParseNotify(d)
		if !ok {
			t.Fatalf("bad notify: % x", d.Data)
		}
		id := readPort(t, r, n.ConnPort, 1)
		if len(id) != 1 || id[0] < 'A' || id[0] >= 'A'+nConns {
			t.Fatalf("bad client id %q", id)
		}
		ports[id[0]-'A'] = n.ConnPort
	}

	// Burst to the stalled client FIRST: if its full window could wedge a
	// shard, every write after this one would hang.
	reply := r.replyPort(r.app)
	big := bytes.Repeat([]byte{0xbb}, bigLen)
	if err := Write(r.app.Port(ports[0]), reply, big); err != nil {
		t.Fatal(err)
	}
	if _, err := recvOn(r.app, reply); err != nil {
		t.Fatal(err)
	}

	small := bytes.Repeat([]byte{0xaa}, smallLen)
	for i := 1; i < nConns; i++ {
		if err := Write(r.app.Port(ports[i]), reply, small); err != nil {
			t.Fatal(err)
		}
		if _, err := recvOn(r.app, reply); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan int, nConns)
	for i := 1; i < nConns; i++ {
		go func(i int) {
			buf := make([]byte, smallLen)
			if _, err := io.ReadFull(clients[i], buf); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
			done <- i
		}(i)
	}
	deadline := time.After(10 * time.Second)
	for i := 1; i < nConns; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("only %d/%d well-behaved clients completed: slow client stalled the loop", i-1, nConns-1)
		}
	}
	for _, c := range clients {
		c.Close()
	}
}

// TestTCPTransportSharded runs real sockets against a 3-shard netd: ids
// from the one Injector spread connections across shards by the unchanged
// hash, and every conversation must still come back intact.
func TestTCPTransportSharded(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(7))
	nd := NewSharded(sys, 3)
	go nd.Run()
	t.Cleanup(nd.Stop)
	app := sys.NewProcess("app")
	notify := app.Open(nil).Handle()
	svc, _ := sys.Env(EnvName)
	if err := Listen(app.Port(svc), 80, notify); err != nil {
		t.Fatal(err)
	}
	r := &rig{sys: sys, nd: nd, app: app, notify: notify}
	ln, err := nd.ListenTCP("127.0.0.1:0", 80)
	if errors.Is(err, ErrTCPUnsupported) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	waitListening(t, nd, 80)

	for i := 0; i < 6; i++ {
		sock, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		msg := fmt.Sprintf("conn-%d", i)
		sock.Write([]byte(msg))
		d, err := recvOn(app, notify)
		if err != nil {
			t.Fatal(err)
		}
		n, ok := ParseNotify(d)
		if !ok {
			t.Fatalf("bad notify: % x", d.Data)
		}
		if got := readPort(t, r, n.ConnPort, len(msg)); string(got) != msg {
			t.Fatalf("conn %d: netd read %q", i, got)
		}
		reply := r.replyPort(app)
		Write(app.Port(n.ConnPort), reply, []byte("ok "+msg))
		recvOn(app, reply)
		Control(app.Port(n.ConnPort), reply, CtlClose)
		recvOn(app, reply)
		sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(sock)
		if err != nil || string(got) != "ok "+msg {
			t.Fatalf("conn %d: client got %q, %v", i, got, err)
		}
		sock.Close()
	}
}

// TestDialAfterStopReturnsErrClosed covers the whole-transport teardown
// path: Netd.Stop closes the simulated Network, and a later Dial fails with
// ErrClosed instead of announcing a connection to stopped shards.
func TestDialAfterStopReturnsErrClosed(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(7))
	nd := New(sys)
	go nd.Run()
	app := sys.NewProcess("app")
	svc, _ := sys.Env(EnvName)
	if err := Listen(app.Port(svc), 80, app.Open(nil).Handle()); err != nil {
		t.Fatal(err)
	}
	waitListening(t, nd, 80)
	nd.Stop()
	if _, err := nd.Network().Dial(80); err != ErrClosed {
		t.Fatalf("Dial after Stop = %v, want ErrClosed", err)
	}
}
