//go:build linux

package netd

import (
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"asbestos/internal/handle"
)

// TestPollerDrainDisarmPushRace pins the lost-write-wakeup regression
// deterministically. The hazard: drainOut finds the outbound ring empty,
// and a concurrent PushOutbound lands before it disarms write interest —
// the pusher sees wantWrite still armed, so it neither direct-writes nor
// posts a kick, trusting the drain loop. If drainOut then disarms EPOLLOUT
// and returns without re-checking the ring, those bytes strand until
// CloseOutbound. testHookDrainOutEmpty injects a push into exactly that
// window; the client must still receive the marker bytes without any
// outbound close forcing a flush.
func TestPollerDrainDisarmPushRace(t *testing.T) {
	r := newRig(t)
	ln, err := r.nd.ListenTCP("127.0.0.1:0", 80)
	if err != nil {
		t.Fatal(err)
	}
	waitListening(t, r.nd, 80)

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Moderate buffers: small enough that the payload overruns them and the
	// poller arms write interest (the precondition for the race), large
	// enough to stay clear of kernel small-buffer pathologies (tiny
	// SO_SNDBUF degrades loopback TCP to persist-timer trickles).
	if tc, ok := raw.(*net.TCPConn); ok {
		tc.SetReadBuffer(64 * 1024)
	}
	if _, err := raw.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := recvOn(r.app, r.notify); err != nil {
		t.Fatal(err)
	}

	var wc WireConn
	r.nd.Injector().Conns(func(w WireConn) { wc = w })
	pc, ok := wc.(*pconn)
	if !ok {
		t.Fatalf("wire conn is %T, want *pconn", wc)
	}
	syscall.SetsockoptInt(pc.fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 64*1024)

	marker := []byte("STRAGGLER")
	var fired atomic.Bool
	hook := func(c *pconn) {
		if c != pc {
			return
		}
		c.mu.Lock()
		armed := c.wantWrite
		c.mu.Unlock()
		if !armed || !fired.CompareAndSwap(false, true) {
			return
		}
		// The drain loop found the ring empty and is about to disarm:
		// push from the lost window. wantWrite is still armed, so
		// PushOutbound spills to the ring with no direct write and no
		// kick — the drain loop itself must pick these bytes up.
		c.PushOutbound(marker)
	}
	testHookDrainOutEmpty.Store(&hook)
	defer testHookDrainOutEmpty.Store(nil)

	// Far more than the kernel can buffer with the client not yet reading:
	// the direct write and the poller's writev both hit EAGAIN, arming
	// write interest before the drain begins.
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	if n := pc.PushOutbound(payload); n != len(payload) {
		t.Fatalf("PushOutbound accepted %d of %d", n, len(payload))
	}
	armedBy := time.Now().Add(5 * time.Second)
	for {
		pc.mu.Lock()
		armed := pc.wantWrite
		pc.mu.Unlock()
		if armed {
			break
		}
		if time.Now().After(armedBy) {
			t.Fatal("write interest never armed — payload fit in kernel buffers?")
		}
		time.Sleep(time.Millisecond)
	}

	raw.SetReadDeadline(time.Now().Add(20 * time.Second))
	want := len(payload) + len(marker)
	got := make([]byte, 0, want)
	buf := make([]byte, 64*1024)
	for len(got) < want {
		n, err := raw.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			pc.mu.Lock()
			t.Logf("pconn state: out.Len=%d wantWrite=%v kickQueued=%v dead=%v",
				pc.out.Len(), pc.wantWrite, pc.kickQueued, pc.dead)
			pc.mu.Unlock()
			t.Fatalf("read stalled at %d/%d bytes (marker stranded?): %v", len(got), want, err)
		}
	}
	if !fired.Load() {
		t.Fatal("drain-empty window never hit with write interest armed — rig assumption broke")
	}
	if string(got[len(payload):]) != string(marker) {
		t.Fatalf("tail %q, want %q", got[len(payload):], marker)
	}
}

// pollerRig boots a rig with the epoll engine on port 80 (one netd shard,
// so one poller).
func pollerRig(t *testing.T) (*rig, func() (wireClient, error)) {
	t.Helper()
	r := newRig(t)
	dial, _ := startTCP(t, r)
	waitListening(t, r.nd, 80)
	return r, dial
}

// countEpollWaits installs testHookEpollWait for the rest of the test and
// returns the running count of EpollWait calls (the rigs here have one
// poller each).
func countEpollWaits(t *testing.T) *atomic.Uint64 {
	t.Helper()
	var n atomic.Uint64
	hook := func() { n.Add(1) }
	testHookEpollWait.Store(&hook)
	t.Cleanup(func() { testHookEpollWait.Store(nil) })
	return &n
}

// TestPollerParksWhenIdle: the poller has one wait, and it is a park — it
// calls EpollWait when the runtime netpoller says the epoll set is ready
// (plus the one empty poll that precedes each park), never to find out
// whether it is. With 50 registered idle connections, a burst of requests
// costs a bounded number of polls each, and once the burst is over the
// count does not move at all.
func TestPollerParksWhenIdle(t *testing.T) {
	waits := countEpollWaits(t)
	r, dial := pollerRig(t)
	var connPort handle.Handle
	var c wireClient
	for i := 0; i < 50; i++ {
		cl, port := dialIntro(t, r, dial, 'i')
		defer cl.Close()
		c, connPort = cl, port
	}
	const reqs = 20
	conn := r.app.Port(connPort)
	start := waits.Load()
	for i := 0; i < reqs; i++ {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if got := readPort(t, r, connPort, 4); string(got) != "ping" {
			t.Fatalf("netd read %q", got)
		}
		if err := Write(conn, handle.None, []byte("pong")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Per request: one poll that finds the readable socket, one empty poll
	// before parking again. A spinning poller makes hundreds.
	if got := waits.Load() - start; got > 4*reqs {
		t.Fatalf("%d EpollWait calls for %d requests; a park-only poller needs about %d", got, reqs, 2*reqs)
	}
	time.Sleep(20 * time.Millisecond) // the empty poll before the final park
	idle := waits.Load()
	time.Sleep(300 * time.Millisecond)
	if got := waits.Load() - idle; got != 0 {
		t.Fatalf("idle poller made %d EpollWait calls in 300ms, want 0", got)
	}
}

// TestPollerLingerDeadlineParks: a connection netd closed whose client
// neither reads nor closes is reaped one linger later even though nothing
// else ever wakes the poller — the linger deadline rides on the park as the
// epoll file's read deadline.
func TestPollerLingerDeadlineParks(t *testing.T) {
	linger := 200 * time.Millisecond
	testHookLinger.Store(&linger) // read once, when the listener opens
	defer testHookLinger.Store(nil)
	waits := countEpollWaits(t)
	r, dial := pollerRig(t)

	c, connPort := dialIntro(t, r, dial, 'l')
	defer c.Close()
	var pc *pconn
	r.nd.Injector().Conns(func(w WireConn) { pc = w.(*pconn) })
	reply := r.replyPort(r.app)
	if err := Control(r.app.Port(connPort), reply, CtlClose); err != nil {
		t.Fatal(err)
	}
	if _, err := recvOn(r.app, reply); err != nil {
		t.Fatal(err)
	}
	closed := time.Now()
	isDead := func() bool {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		return pc.dead
	}
	time.Sleep(linger / 2)
	if isDead() {
		t.Fatal("connection reaped before its linger ran out")
	}
	polls := waits.Load()
	for !isDead() {
		if time.Since(closed) > linger+2*time.Second {
			t.Fatal("lingering connection never reaped: the deadline did not end the park")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Reaped by the deadline, not by polling for it: the timeout itself
	// costs no EpollWait, the loop's next wait makes one before parking.
	if got := waits.Load() - polls; got > 2 {
		t.Fatalf("%d EpollWait calls while waiting out the linger, want at most 2", got)
	}
}

// TestPollerWaitSeesClosed: Close wakes each poller through the same
// eventfd posted ops use, and one drainWake swallows every wake written so
// far. So a loop iteration that tested closed just before Close set it can
// drain Close's wake along with the one that woke it, and the next wait
// finds no event pending. It must still not park — nothing else would ever
// wake it, and Close waits for the loop to exit.
func TestPollerWaitSeesClosed(t *testing.T) {
	l := &pollerListener{reserve: -1}
	p, err := newPoller(l, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.epFile.Close()
	defer syscall.Close(p.wakefd)

	p.wake()             // an ordinary op's wake ...
	l.closed.Store(true) // ... then Close: its store,
	p.wake()             // and its wake,
	p.drainWake()        // both swallowed by the iteration already running.
	returned := make(chan struct{})
	go func() {
		p.wait(make([]syscall.EpollEvent, 8))
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		p.wake()
		<-returned
		t.Fatal("wait parked on a closed listener with no event pending: Close would hang")
	}
}
