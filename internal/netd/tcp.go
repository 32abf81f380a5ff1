package netd

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"asbestos/internal/buffered"
)

// closeLinger bounds how long a finished connection's read side lingers
// after netd closed it, giving the client time to drain the final response
// before the socket goes away entirely. A variable only so tests can
// shorten it (before the front end starts).
var closeLinger = 5 * time.Second

// PollerMode selects the engine behind a TCP front end.
type PollerMode int

const (
	// PollerAuto picks the epoll poller transport on Linux (unless the
	// ASBESTOS_TCP_POLLER=off environment escape hatch is set) and the
	// portable goroutine-pair transport elsewhere.
	PollerAuto PollerMode = iota
	// PollerOn requires the epoll poller; ListenTCPConfig fails on
	// platforms without it.
	PollerOn
	// PollerOff forces the portable goroutine-pair transport — two
	// goroutines, one mutex+cond pair and private buffers per connection.
	PollerOff
)

// TCPConfig tunes a TCP front end beyond the address; the zero value is
// the production default (PollerAuto).
type TCPConfig struct {
	// Poller selects between the epoll poller transport (O(shards)
	// goroutines for any number of connections) and the goroutine-pair
	// transport (2 goroutines per connection). The two are A/B-comparable:
	// both implement the identical Transport contract against the same
	// shard loops, and BenchmarkFig7TransportAB interleaves them.
	Poller PollerMode
}

// enabled resolves the mode against platform support and the environment.
func (m PollerMode) enabled() (bool, error) {
	switch m {
	case PollerOn:
		if !pollerSupported {
			return false, errors.New("netd: epoll poller transport requires linux")
		}
		return true, nil
	case PollerOff:
		return false, nil
	default:
		if !pollerSupported {
			return false, nil
		}
		switch os.Getenv("ASBESTOS_TCP_POLLER") {
		case "off", "0":
			return false, nil
		}
		return true, nil
	}
}

// PollerAvailable reports whether this platform has the epoll poller
// transport (true on Linux).
func PollerAvailable() bool { return pollerSupported }

// TCPFrontend is a running real-socket front end: either the epoll poller
// transport (poller_linux.go) or the goroutine-pair TCPListener below.
// Both satisfy the Transport contract; Close (or Netd.Stop) tears them
// down.
type TCPFrontend interface {
	Transport
	// Addr reports the bound listen address (useful with ":0").
	Addr() net.Addr
}

// ListenTCP binds a real TCP listener on addr (e.g. "127.0.0.1:0") and
// bridges accepted connections to the Asbestos listeners registered on
// lport, exactly as if they had arrived over the simulated wire, using the
// default TCPConfig. The Asbestos side must already be Listening on lport
// (or start soon — connections accepted before then are refused).
func (nd *Netd) ListenTCP(addr string, lport uint16) (TCPFrontend, error) {
	return nd.ListenTCPConfig(addr, lport, TCPConfig{})
}

// ListenTCPConfig is ListenTCP with explicit engine selection. The
// returned front end is registered as one of this netd's transports, so
// Stop tears it down; it can also be closed on its own.
func (nd *Netd) ListenTCPConfig(addr string, lport uint16, cfg TCPConfig) (TCPFrontend, error) {
	poll, err := cfg.Poller.enabled()
	if err != nil {
		return nil, err
	}
	if poll {
		return nd.listenPoller(addr, lport)
	}
	return nd.listenPair(addr, lport)
}

// TCPListener is the goroutine-pair TCP transport: a net.Listener whose
// accepted connections feed the same sharded netd loops as the simulated
// Network — same Injector ids, same shard.OfU64 ownership, same
// driver-port events. Each connection gets two goroutines: a reader
// filling the pooled inbound ring (blocking when the connWindow is full,
// so a flooding client stalls only its own socket), and a writer draining
// the pooled outbound ring with vectored writes, so a dispatch burst's
// worth of replies reaches the socket as one writev. A client that never
// drains parks only its own writer goroutine on the socket — never a
// shard loop.
//
// This is the portable engine and the A/B baseline for the epoll poller
// transport (PollerMode); at N connections it costs 2N goroutines and N
// mutex+cond pairs where the poller costs O(shards).
type TCPListener struct {
	inj   *Injector
	lns   []net.Listener // SO_REUSEPORT group; lns[0] resolves the address
	lport uint16

	mu       sync.Mutex
	cond     *sync.Cond // signals accepted, closed
	closed   bool
	accepted []net.Conn // accept backlog awaiting registration (FIFO)
	conns    map[uint64]*tcpConn

	// reserve is a spare fd (open on /dev/null) the accept loops burn to
	// shed connections when the process is out of file descriptors; see
	// shedOverLimit. -1 when unavailable.
	reserveMu sync.Mutex
	reserve   int
}

var _ Transport = (*TCPListener)(nil)
var _ TCPFrontend = (*TCPListener)(nil)

// listenPair boots the goroutine-pair engine.
func (nd *Netd) listenPair(addr string, lport uint16) (*TCPListener, error) {
	lns, err := listenGroup(addr)
	if err != nil {
		return nil, err
	}
	l := &TCPListener{
		inj:   nd.inj,
		lns:   lns,
		lport: lport,
		conns: make(map[uint64]*tcpConn),
	}
	l.cond = sync.NewCond(&l.mu)
	l.reserve = -1
	if fd, err := syscall.Open("/dev/null", syscall.O_RDONLY, 0); err == nil {
		l.reserve = fd
	}
	nd.AddTransport(l)
	for _, ln := range lns {
		go l.acceptLoop(ln)
	}
	go l.registerLoop()
	return l, nil
}

// tcpAcceptQueues is how many SO_REUSEPORT sockets back one TCP front end.
// Each socket carries its own kernel accept queue (bounded by
// net.core.somaxconn, typically 4096), and the kernel hashes incoming
// connections across the group — so the group's combined queue capacity,
// not one socket's, is what a connection burst must overflow before the
// kernel sheds handshake ACKs. A shed ACK is the worst failure mode a
// front end can have: the client sees an established connection whose
// requests silently vanish until the SYN-ACK retransmission ladder or the
// client's own teardown resolves it, tens of seconds later. Eight queues
// put the overflow point past 30k simultaneous un-accepted connections.
const tcpAcceptQueues = 8

// soReusePort is SO_REUSEPORT on Linux; the syscall package predates the
// option and never picked it up.
const soReusePort = 0xf

// listenGroup opens up to tcpAcceptQueues listeners on one address. The
// first bind resolves the port (addr may be ":0"); the rest join its
// reuseport group. Kernels without SO_REUSEPORT fall back to a single
// plainly-bound socket.
func listenGroup(addr string) ([]net.Listener, error) {
	lc := net.ListenConfig{Control: func(network, address string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}); err != nil {
			return err
		}
		return serr
	}}
	first, err := lc.Listen(context.Background(), "tcp", addr)
	if err != nil {
		ln, perr := net.Listen("tcp", addr)
		if perr != nil {
			return nil, err
		}
		return []net.Listener{ln}, nil
	}
	lns := []net.Listener{first}
	for len(lns) < tcpAcceptQueues {
		ln, err := lc.Listen(context.Background(), "tcp", first.Addr().String())
		if err != nil {
			break // partial group still works, just with less queue headroom
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// Addr reports the bound address (useful with ":0").
func (l *TCPListener) Addr() net.Addr { return l.lns[0].Addr() }

// Close implements Transport: stop accepting and shut every live socket.
func (l *TCPListener) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	pending := l.accepted
	l.accepted = nil
	conns := make([]*tcpConn, 0, len(l.conns))
	for _, c := range l.conns {
		conns = append(conns, c)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	for _, ln := range l.lns {
		ln.Close()
	}
	for _, sock := range pending {
		sock.Close()
	}
	for _, c := range conns {
		c.fail()
	}
	l.reserveMu.Lock()
	if l.reserve >= 0 {
		syscall.Close(l.reserve)
		l.reserve = -1
	}
	l.reserveMu.Unlock()
}

// acceptLoop does nothing but drain its socket's kernel accept queue into
// the registration backlog. Keeping it this tight matters: per-conn setup
// (port allocation, the evNewConn kernel send, goroutine spawns) costs
// hundreds of microseconds, and an accept path that pays it inline lets a
// connection burst pile established connections up in the listen queue —
// where they are invisible to diagnostics and, past the backlog bound,
// get their handshake ACKs shed. An Accept-only loop drains at syscall
// speed; the backlog it feeds is bounded only by the process fd limit,
// which is what a socket costs anyway.
func (l *TCPListener) acceptLoop(ln net.Listener) {
	var backoff time.Duration
	for {
		sock, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed
			}
			if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) {
				// Out of fds. The established connections queued behind
				// this failure cannot be accepted, and their clients see a
				// socket that swallows requests without answering — an
				// undebuggable wedge that persists until the fd budget
				// recovers. Shedding them with the reserve fd turns that
				// into an immediate close the client can react to.
				l.shedOverLimit(ln)
			}
			// Transient accept failure (fd exhaustion, aborted handshake):
			// dying here would strand the whole backlog, so back off and
			// keep accepting — a load spike is the one moment the listener
			// must not give up.
			if backoff < 5*time.Millisecond {
				backoff += time.Millisecond
			} else if backoff < time.Second {
				backoff *= 2
			}
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			sock.Close()
			return
		}
		l.accepted = append(l.accepted, sock)
		l.cond.Signal()
		l.mu.Unlock()
	}
}

// shedOverLimit is the classic reserve-fd dance for accept-time fd
// exhaustion: close the spare fd, accept the connection that just failed
// for want of it, close that connection immediately (the client sees EOF
// and can retry elsewhere), and re-open the spare. One queued victim is
// shed per call; the accept loop's backoff paces the rest.
func (l *TCPListener) shedOverLimit(ln net.Listener) {
	l.reserveMu.Lock()
	defer l.reserveMu.Unlock()
	if l.reserve < 0 {
		return
	}
	syscall.Close(l.reserve)
	l.reserve = -1
	// EMFILE can surface with an empty queue (the kernel allocates the fd
	// before dequeuing), so bound the shed accept instead of blocking on a
	// connection that may never come.
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(time.Now().Add(50 * time.Millisecond))
		defer d.SetDeadline(time.Time{})
	}
	if sock, err := ln.Accept(); err == nil {
		sock.Close()
	}
	if fd, err := syscall.Open("/dev/null", syscall.O_RDONLY, 0); err == nil {
		l.reserve = fd
	}
}

// registerLoop turns accepted sockets into live connections, in accept
// order: allocate the id, publish to the Injector, inject the evNewConn,
// then start the socket goroutines. Register happens before the evNewConn
// per the Transport contract, and the reader starts only after the
// announcement is injected, so its evData/evClosed happen-after the
// evNewConn.
func (l *TCPListener) registerLoop() {
	for {
		l.mu.Lock()
		for len(l.accepted) == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		sock := l.accepted[0]
		l.accepted = l.accepted[1:]
		l.mu.Unlock()
		if !l.inj.Listening(l.lport) {
			sock.Close()
			continue
		}
		c := newTCPConn(l.inj.NewID(), sock, l)
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			sock.Close()
			return
		}
		l.conns[c.id] = c
		l.mu.Unlock()
		l.inj.Register(c)
		l.inj.EventNewConn(c.id, l.lport)
		go c.readLoop()
		go c.writeLoop()
	}
}

func (l *TCPListener) forget(id uint64) {
	l.mu.Lock()
	delete(l.conns, id)
	l.mu.Unlock()
}

// tcpConn adapts one accepted socket to WireConn. The shard side touches
// only the two pooled rings; the socket goroutines move bytes between the
// rings and the wire.
type tcpConn struct {
	id   uint64
	sock net.Conn
	l    *TCPListener

	mu   sync.Mutex
	cond *sync.Cond
	in   inboundRing   // socket → Asbestos, capped at connWindow (reader blocks)
	out  buffered.Ring // Asbestos → socket, drained by the writer goroutine

	inEOF  bool // remote closed / read side finished
	outEOF bool // Asbestos side closed; drain then CloseWrite
	dead   bool // hard stop for both goroutines

	closeOnce sync.Once
}

var _ WireConn = (*tcpConn)(nil)

func newTCPConn(id uint64, sock net.Conn, l *TCPListener) *tcpConn {
	c := &tcpConn{id: id, sock: sock, l: l}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// readLoop fills the inbound ring from the socket, honoring the
// connWindow: when netd hasn't drained the ring, the loop waits (and the
// kernel's TCP flow control pushes back on the sender) instead of growing
// memory — exactly the simulated wire's window semantics. Reads land
// directly in pooled ring chunks: no per-connection scratch buffer, no
// append growth, no copy between the socket and the shard's TakeInbound
// view. The Writable reservation is taken under the lock and stays valid
// across the blocking Read per the Ring's producer rules. When the loop
// exits the socket side is finished with the in-ring (inboundRing.done);
// the shard may still drain it until it unregisters the connection.
func (c *tcpConn) readLoop() {
	defer c.sock.Close()
	defer c.l.forget(c.id)
	defer c.inboundDone()
	for {
		c.mu.Lock()
		for c.in.Len() >= connWindow && !c.dead {
			c.cond.Wait()
		}
		if c.dead {
			c.mu.Unlock()
			c.notifyClosed()
			return
		}
		w := c.in.Writable()
		if space := connWindow - c.in.Len(); len(w) > space {
			w = w[:space]
		}
		c.mu.Unlock()
		n, err := c.sock.Read(w)
		if n > 0 {
			c.mu.Lock()
			wasEmpty := c.in.Len() == 0
			c.in.Commit(n)
			c.mu.Unlock()
			// Inject evData only on the empty→non-empty transition: while
			// the buffer stays non-empty, either a previous evData is still
			// in flight or the shard has no read pending (fulfillReads
			// leaves data behind only with an empty pending queue), and the
			// next opRead re-checks the buffer directly.
			if wasEmpty {
				c.l.inj.EventData(c.id)
			}
		}
		if err != nil {
			c.notifyClosed()
			return
		}
	}
}

// notifyClosed marks the read side finished and announces the close to the
// owning shard, exactly once.
func (c *tcpConn) notifyClosed() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.inEOF = true
		c.cond.Broadcast()
		c.mu.Unlock()
		c.l.inj.EventClosed(c.id)
	})
}

// writeLoop drains the outbound ring with vectored writes: each wakeup
// gathers everything queued into one writev (net.Buffers), so a burst of
// replies coalesced by the shard's Batcher costs one syscall, not one per
// reply. A client whose window is full blocks this goroutine inside the
// write; the shard keeps appending to the ring unhindered.
func (c *tcpConn) writeLoop() {
	var views [][]byte
	for {
		c.mu.Lock()
		for c.out.Len() == 0 && !c.outEOF && !c.dead {
			c.cond.Wait()
		}
		views = c.out.Views(views[:0], 1<<30)
		eof, dead := c.outEOF, c.dead
		c.mu.Unlock()
		if dead {
			c.mu.Lock()
			c.out.Reset() // writer owns out-ring teardown; shard sees dead
			c.mu.Unlock()
			return
		}
		if len(views) > 0 {
			total := 0
			for _, v := range views {
				total += len(v)
			}
			bufs := net.Buffers(views)
			if _, err := bufs.WriteTo(c.sock); err != nil {
				c.fail()
				c.mu.Lock()
				c.out.Reset()
				c.mu.Unlock()
				return
			}
			c.mu.Lock()
			c.out.Discard(total)
			quiet := c.out.Len() == 0
			c.mu.Unlock()
			if !quiet {
				continue // burst still producing; keep gathering
			}
		}
		if eof {
			// Asbestos closed and everything drained: half-close so the
			// client reads a clean EOF after the final response, then bound
			// the read side's lingering and stop.
			if hc, ok := c.sock.(interface{ CloseWrite() error }); ok {
				hc.CloseWrite()
			}
			c.sock.SetReadDeadline(time.Now().Add(closeLinger))
			c.mu.Lock()
			c.dead = true
			c.cond.Broadcast()
			c.out.Reset()
			c.mu.Unlock()
			return
		}
	}
}

// fail hard-stops the connection: wake both goroutines and close the
// socket, which unblocks a reader parked in sock.Read; the read side then
// reports evClosed so netd tears the connection down.
func (c *tcpConn) fail() {
	c.mu.Lock()
	c.dead = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.sock.Close()
	c.notifyClosed()
}

// --- WireConn (owning shard's loop only) ---

func (c *tcpConn) ID() uint64 { return c.id }

// inboundDone is one party's last word on the in-ring: the reader's when
// it exits, the shard's at Injector.Unregister.
func (c *tcpConn) inboundDone() {
	c.mu.Lock()
	c.in.done()
	c.mu.Unlock()
}

// TakeInbound hands out a view straight into the pooled ring — no copy.
// Per the WireConn contract the view is valid until the next TakeInbound
// on this connection; fulfillReads serializes the bytes into a wire
// message immediately.
func (c *tcpConn) TakeInbound(max int) (data []byte, eof bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data = c.in.Take(max)
	if data == nil {
		return nil, c.inEOF
	}
	c.cond.Broadcast() // reopen the window for the reader goroutine
	return data, false
}

// PushOutbound accepts everything, like the simulated wire: backpressure
// from a slow client lands on the writer goroutine (blocked in the
// socket write), never on the shard, and upstream writers (demux,
// workers) see identical full-acceptance semantics on both transports.
func (c *tcpConn) PushOutbound(b []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outEOF || c.dead {
		return 0
	}
	c.out.Write(b)
	c.cond.Broadcast()
	return len(b)
}

func (c *tcpConn) CloseOutbound() {
	c.mu.Lock()
	c.outEOF = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *tcpConn) BufferState() (readable, writable int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := connWindow - c.out.Len()
	if w < 0 {
		w = 0
	}
	return c.in.Len(), w
}
