package netd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"asbestos/internal/buffered"
	"asbestos/internal/handle"
)

// The transport conformance suite: every WireConn/Transport implementation
// — the simulated wire and the epoll poller TCP engine — must satisfy the
// same observable contract against the same netd shard loops. Each engine
// below is exercised through the full suite; a behavioral difference
// between them is a bug in the engine, not a difference in kind.

// tengine is one transport implementation under test.
type tengine struct {
	name string
	// start opens the engine on the rig's port 80 and returns the client
	// dialer plus the front end to close (nil for the simulated wire).
	start func(t *testing.T, r *rig) (func() (wireClient, error), TCPFrontend)
}

// startTCP opens the epoll poller on the rig's port 80, skipping the test
// on platforms without real sockets.
func startTCP(t *testing.T, r *rig) (func() (wireClient, error), TCPFrontend) {
	t.Helper()
	ln, err := r.nd.ListenTCP("127.0.0.1:0", 80)
	if errors.Is(err, ErrTCPUnsupported) {
		t.Skip(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	return func() (wireClient, error) {
		return net.Dial("tcp", ln.Addr().String())
	}, ln
}

var tcpPoller = tengine{name: "tcp-poller", start: startTCP}

func engines() []tengine {
	return []tengine{
		{name: "simulated", start: func(t *testing.T, r *rig) (func() (wireClient, error), TCPFrontend) {
			return func() (wireClient, error) { return r.nd.Network().Dial(80) }, nil
		}},
		tcpPoller,
	}
}

// dialIntro dials, introduces the connection with one id byte, and returns
// the client plus the netd-side conn port from the listener notify.
func dialIntro(t *testing.T, r *rig, dial func() (wireClient, error), id byte) (wireClient, handle.Handle) {
	t.Helper()
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte{id}); err != nil {
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
	if got := readPort(t, r, n.ConnPort, 1); len(got) != 1 || got[0] != id {
		t.Fatalf("intro byte %q, want %q", got, []byte{id})
	}
	return c, n.ConnPort
}

func TestTransportConformance(t *testing.T) {
	for _, eng := range engines() {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			t.Run("EchoAndServerClose", func(t *testing.T) { testEchoAndServerClose(t, eng) })
			t.Run("WindowBackpressureIntegrity", func(t *testing.T) { testWindowBackpressure(t, eng) })
			t.Run("DataEdgeResidue", func(t *testing.T) { testDataEdgeResidue(t, eng) })
			t.Run("SlowClientIsolation", func(t *testing.T) { testSlowClient(t, eng) })
			t.Run("OutboundBurstIntegrity", func(t *testing.T) { testOutboundBurst(t, eng) })
			t.Run("ClientCloseEOF", func(t *testing.T) { testClientCloseEOF(t, eng) })
			t.Run("FrontCloseDropsClients", func(t *testing.T) { testFrontClose(t, eng) })
			t.Run("ChunksReturnedAtTeardown", func(t *testing.T) { testChunksReturned(t, eng) })
			t.Run("ParkedConnsHoldNoChunks", func(t *testing.T) { testParkedChunks(t, eng) })
		})
	}
}

// testEchoAndServerClose: request/response and a clean server-side close —
// the client must read the full response and then EOF, on every engine.
func testEchoAndServerClose(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, _ := eng.start(t, r)
	waitListening(t, r.nd, 80)
	c, connPort := dialIntro(t, r, dial, 'e')

	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if got := readPort(t, r, connPort, 4); string(got) != "ping" {
		t.Fatalf("netd read %q", got)
	}
	reply := r.replyPort(r.app)
	if err := Write(r.app.Port(connPort), reply, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	recvOn(r.app, reply)
	if err := Control(r.app.Port(connPort), reply, CtlClose); err != nil {
		t.Fatal(err)
	}
	recvOn(r.app, reply)

	got, err := readAllDeadline(c, 5*time.Second)
	if err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(got) != "pong" {
		t.Fatalf("client got %q, want %q", got, "pong")
	}
}

// waitChunks polls until the process-wide count of pooled ring chunks in
// use is back at base: the socket side lets go of a connection on its own
// goroutine, a moment after the client sees the close.
func waitChunks(t *testing.T, base int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := buffered.ChunksOutstanding() - base
		if got == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d ring chunks outstanding beyond the starting count, want 0", what, got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// testChunksReturned: a connection's pooled buffers go back to the pool
// when the connection does — open → request → response → close, a thousand
// times, and the count of chunks in use is where it started. The inbound
// ring is the interesting one: neither the shard nor the socket side may
// reset it alone, so the second of them to finish must.
func testChunksReturned(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, _ := eng.start(t, r)
	waitListening(t, r.nd, 80)
	base := buffered.ChunksOutstanding()
	reply := r.replyPort(r.app)
	for i := 0; i < 1000; i++ {
		c, connPort := dialIntro(t, r, dial, 'k')
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if got := readPort(t, r, connPort, 4); string(got) != "ping" {
			t.Fatalf("conn %d: netd read %q", i, got)
		}
		conn := r.app.Port(connPort)
		if err := Write(conn, handle.None, []byte("pong")); err != nil {
			t.Fatal(err)
		}
		if err := Control(conn, reply, CtlClose); err != nil {
			t.Fatal(err)
		}
		if _, err := recvOn(r.app, reply); err != nil {
			t.Fatal(err)
		}
		if got, err := readAllDeadline(c, 5*time.Second); err != nil || string(got) != "pong" {
			t.Fatalf("conn %d: client got %q, %v", i, got, err)
		}
		c.Close()
	}
	waitChunks(t, base, "after 1000 closed connections")
}

// testParkedChunks: a keep-alive connection between requests — request
// drained, response written, next read pending — costs the poller no
// buffer memory at all.
func testParkedChunks(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, front := eng.start(t, r)
	if front == nil {
		t.Skip("the simulated wire has no pooled rings")
	}
	waitListening(t, r.nd, 80)
	base := buffered.ChunksOutstanding()
	const conns = 200
	park := r.replyPort(r.app)
	for i := 0; i < conns; i++ {
		c, connPort := dialIntro(t, r, dial, 'p')
		defer c.Close()
		if _, err := c.Write([]byte("GET /")); err != nil {
			t.Fatal(err)
		}
		if got := readPort(t, r, connPort, 5); string(got) != "GET /" {
			t.Fatalf("conn %d: netd read %q", i, got)
		}
		conn := r.app.Port(connPort)
		if err := Write(conn, handle.None, []byte("200")); err != nil {
			t.Fatal(err)
		}
		if err := Read(conn, park, 4096); err != nil { // the park: stays pending
			t.Fatal(err)
		}
		buf := make([]byte, 3)
		if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "200" {
			t.Fatalf("conn %d: client got %q, %v", i, buf, err)
		}
	}
	waitChunks(t, base, "with 200 parked connections")
}

// testWindowBackpressure floods far more than connWindow inbound without
// the app reading. The transport must bound its buffer at the window
// (blocking the remote writer / pausing the socket), then hand every byte
// over intact as the app drains — exercising the poller's pause/resume
// path.
func testWindowBackpressure(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, _ := eng.start(t, r)
	waitListening(t, r.nd, 80)
	c, connPort := dialIntro(t, r, dial, 'w')

	const total = 3 * connWindow
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	werr := make(chan error, 1)
	go func() {
		_, err := c.Write(payload)
		werr <- err
	}()
	// Give the flood time to hit the window; the writer must be blocked,
	// not buffered without bound.
	time.Sleep(100 * time.Millisecond)
	if in, _ := wireConnOf(t, r, connPort); in > connWindow {
		t.Fatalf("inbound buffer %d exceeds connWindow %d", in, connWindow)
	}

	got := readPort(t, r, connPort, total)
	if err := <-werr; err != nil {
		t.Fatalf("client write: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("flood corrupted: %d bytes, first diff at %d", len(got), firstDiff(got, payload))
	}
}

// wireConnOf reports the largest inbound buffer across registered conns —
// with one live connection that is its buffer depth.
func wireConnOf(t *testing.T, r *rig, _ handle.Handle) (readable, writable int) {
	t.Helper()
	maxIn := 0
	r.nd.Injector().Conns(func(c WireConn) {
		in, _ := c.BufferState()
		if in > maxIn {
			maxIn = in
		}
	})
	return maxIn, 0
}

// testDataEdgeResidue pins the evData edge semantics: data left behind by
// a short read must satisfy a LATER read without any new evData (the
// buffer never went empty, so the transport owes no new event — netd's
// opRead re-checks the buffer directly).
func testDataEdgeResidue(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, _ := eng.start(t, r)
	waitListening(t, r.nd, 80)
	c, connPort := dialIntro(t, r, dial, 'd')

	if _, err := c.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if got := readPort(t, r, connPort, 5); string(got) != "hello" {
		t.Fatalf("first read %q", got)
	}
	// No client write between these reads: the residue alone must complete
	// the second read.
	if got := readPort(t, r, connPort, 6); string(got) != " world" {
		t.Fatalf("residue read %q", got)
	}
	// And after the buffer drained, a fresh write must produce a fresh
	// evData that completes a read issued BEFORE the data existed.
	reply := r.replyPort(r.app)
	if err := Read(r.app.Port(connPort), reply, 16); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the read queue server-side
	if _, err := c.Write([]byte("edge")); err != nil {
		t.Fatal(err)
	}
	d, err := recvOn(r.app, reply)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := ParseReadReply(d)
	if !ok || string(rr.Data) != "edge" {
		t.Fatalf("pending read got %q (ok=%v)", rr.Data, ok)
	}
}

func testSlowClient(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, _ := eng.start(t, r)
	waitListening(t, r.nd, 80)
	testSlowClientIsolation(t, r, dial)
}

// testOutboundBurst hammers the transport's outbound contract directly:
// PushOutbound (from a non-poller goroutine, as the shard does) races the
// engine's own drain loop, paced so the outbound buffer crosses the
// empty↔non-empty boundary constantly while a throttled client keeps the
// kernel send buffer cycling full↔drained. Every pushed byte must reach
// the client WITHOUT a CloseOutbound — a transport that strands buffered
// bytes until close (e.g. via a lost write wakeup in the drain/disarm
// window) stalls the reader here.
func testOutboundBurst(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, _ := eng.start(t, r)
	waitListening(t, r.nd, 80)
	c, _ := dialIntro(t, r, dial, 'b')

	var wc WireConn
	r.nd.Injector().Conns(func(w WireConn) { wc = w })
	if wc == nil {
		t.Fatal("no wire conn registered")
	}

	const chunk = 4096
	const chunks = 4096 // 16 MiB
	payload := make([]byte, chunk*chunks)
	for i := range payload {
		payload[i] = byte(i*131 + 11)
	}
	werr := make(chan error, 1)
	go func() {
		for i := 0; i < chunks; i++ {
			// Keep the outbound buffer shallow so the drain side hits
			// empty — and the racy disarm-vs-push window — on nearly
			// every chunk, instead of only once at the end of the burst.
			for {
				_, writable := wc.BufferState()
				if connWindow-writable < 2*chunk {
					break
				}
				runtime.Gosched()
			}
			if n := wc.PushOutbound(payload[i*chunk : (i+1)*chunk]); n != chunk {
				werr <- fmt.Errorf("PushOutbound accepted %d of %d at chunk %d", n, chunk, i)
				return
			}
		}
		werr <- nil
	}()

	if dc, ok := c.(interface{ SetReadDeadline(time.Time) error }); ok {
		dc.SetReadDeadline(time.Now().Add(30 * time.Second))
	}
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 32*1024)
	for i := 0; len(got) < len(payload); i++ {
		n, err := c.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			t.Fatalf("client read stalled at %d/%d bytes: %v", len(got), len(payload), err)
		}
		// Throttle the drain so the kernel send buffer fills and empties
		// over and over: every fill arms the transport's write interest,
		// every drain-to-empty disarms it, with pushes racing both edges.
		if i%4 == 3 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err := <-werr; err != nil {
		t.Fatalf("app write: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("burst corrupted: first diff at %d", firstDiff(got, payload))
	}
}

// testClientCloseEOF: the client closing its end must surface as EOF on
// the app's reads (evClosed → pending reads complete with EOF).
func testClientCloseEOF(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, _ := eng.start(t, r)
	waitListening(t, r.nd, 80)
	c, connPort := dialIntro(t, r, dial, 'c')

	reply := r.replyPort(r.app)
	if err := Read(r.app.Port(connPort), reply, 64); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	c.Close()
	d, err := recvOn(r.app, reply)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := ParseReadReply(d)
	if !ok {
		t.Fatalf("bad read reply: % x", d.Data)
	}
	if !rr.EOF {
		t.Fatalf("pending read after client close: EOF=false, data=%q", rr.Data)
	}
}

// testFrontClose: closing the front end mid-connection must drop the
// client promptly (EOF or reset), not leave it wedged. Simulated wire has
// no separate front end; its teardown is covered by the Network close
// tests.
func testFrontClose(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, front := eng.start(t, r)
	waitListening(t, r.nd, 80)
	if front == nil {
		t.Skip("no separate front end for this engine")
	}
	c, _ := dialIntro(t, r, dial, 'f')
	front.Close()
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := c.Read(buf); err != nil {
				close(done)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client still connected 5s after front end Close")
	}
}

// TestTransportGoroutineFootprint pins the poller's resource claim: N
// parked connections cost it no goroutines at all (its goroutines are
// per-shard, created at listen time). If the poller ever regresses to
// per-connection goroutines this fails.
func TestTransportGoroutineFootprint(t *testing.T) {
	const conns = 64
	t.Run("poller", func(t *testing.T) {
		r := newRig(t)
		dial, _ := startTCP(t, r)
		waitListening(t, r.nd, 80)
		base := runtime.NumGoroutine()
		for i := 0; i < conns; i++ {
			c, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if _, err := c.Write([]byte{1}); err != nil {
				t.Fatal(err)
			}
			if _, err := recvOn(r.app, r.notify); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(50 * time.Millisecond) // let per-conn goroutines (if any) settle
		delta := runtime.NumGoroutine() - base
		if delta >= conns/2 {
			t.Fatalf("poller engine grew %d goroutines for %d conns; want O(shards)", delta, conns)
		}
		t.Logf("poller: +%d goroutines for %d conns", delta, conns)
	})
}

// TestTCPShedRecovery exercises the poller's EMFILE path: with
// RLIMIT_NOFILE lowered to just above the current usage, a dial storm must
// not kill the accept path — shed connections close instead of wedging,
// and once the limit is restored the listener accepts and serves again.
func TestTCPShedRecovery(t *testing.T) {
	t.Run(tcpPoller.name, func(t *testing.T) { testShedRecovery(t, tcpPoller) })
}

func testShedRecovery(t *testing.T, eng tengine) {
	r := newRig(t)
	dial, _ := eng.start(t, r)
	waitListening(t, r.nd, 80)

	// Prove the path works before the squeeze.
	echo := func(tag byte) error {
		c, err := dial()
		if err != nil {
			return err
		}
		defer c.Close()
		if _, err := c.Write([]byte{tag}); err != nil {
			return err
		}
		d, err := recvOn(r.app, r.notify)
		if err != nil {
			return err
		}
		n, ok := ParseNotify(d)
		if !ok {
			return fmt.Errorf("bad notify")
		}
		if got := readPort(t, r, n.ConnPort, 1); len(got) != 1 || got[0] != tag {
			return fmt.Errorf("echo got %q", got)
		}
		return nil
	}
	if err := echo('0'); err != nil {
		t.Fatalf("pre-squeeze echo: %v", err)
	}

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	open, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("/proc/self/fd: %v", err)
	}
	squeezed := lim
	squeezed.Cur = uint64(len(open)) + 40
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &squeezed); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	restore := func() { syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim) }
	defer restore()

	// Dial storm into the squeezed server. Every socket must resolve —
	// either served or shed with a prompt close; a dial that fails
	// client-side (our own fd budget) is fine too. Nothing may wedge.
	var socks []wireClient
	for i := 0; i < 60; i++ {
		c, err := dial()
		if err != nil {
			break // our own side ran out of fds or backlog filled: storm delivered
		}
		socks = append(socks, c)
	}
	var shed atomic.Int32
	var wg sync.WaitGroup
	for _, c := range socks {
		wg.Add(1)
		go func(c wireClient) {
			defer wg.Done()
			defer c.Close()
			if dc, ok := c.(interface{ SetReadDeadline(time.Time) error }); ok {
				dc.SetReadDeadline(time.Now().Add(2 * time.Second))
			}
			buf := make([]byte, 1)
			if _, err := c.Read(buf); err != nil {
				if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
					shed.Add(1) // EOF/RST: the reserve-fd dance closed it
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("storm: %d dialed, %d shed under fd pressure", len(socks), shed.Load())
	restore()

	// The listener must have survived: a fresh conversation completes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := echo('1'); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("listener never recovered after fd exhaustion: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func readAllDeadline(c wireClient, d time.Duration) ([]byte, error) {
	type deadliner interface{ SetReadDeadline(time.Time) error }
	if dc, ok := c.(deadliner); ok {
		dc.SetReadDeadline(time.Now().Add(d))
	}
	var out []byte
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
