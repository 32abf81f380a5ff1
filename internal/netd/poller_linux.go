//go:build linux

package netd

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"asbestos/internal/buffered"
	"asbestos/internal/shard"
)

// The epoll poller transport: netd's one real-socket engine, behind
// ListenTCP on Linux (other platforms get ErrTCPUnsupported and run over
// the simulated wire). It runs ONE poller goroutine per netd shard —
// O(shards) goroutines for any number of sockets, none per connection —
// and moves bytes only when epoll says the socket is ready.
//
// Ownership rules (also in the package doc):
//
//   - Poller i owns exactly the fds whose connection ids hash to netd
//     shard i (shard.OfU64(id, pollers)), so a connection's socket I/O and
//     its netd events are both single-threaded, on goroutines that never
//     contend with another connection's.
//   - Fd syscalls on a connection happen on its poller goroutine, with
//     one exception: PushOutbound writes the fd directly from the shard
//     goroutine when the ring is empty and no write interest is armed
//     (safe because destroy marks the conn dead under the conn mutex
//     before closing the fd). Otherwise shard-side WireConn calls touch
//     only the rings under the conn mutex and post ops (eventfd wake)
//     when the poller must act: a write kick when a direct write spilled,
//     a read resume when TakeInbound reopens the window.
//   - Accept is inline: each poller owns one listen fd in the
//     SO_REUSEPORT group and drains it on EPOLLIN, registering accepted
//     connections with the Injector before injecting evNewConn. A
//     connection accepted on poller A but owned by poller B is handed off
//     by fd, unregistered — B does everything, so the per-connection
//     happens-before chain starts on one goroutine.
//   - EPOLLOUT is armed only while a writev left backlog and disarmed the
//     moment the ring drains — a mostly-idle connection costs zero write
//     wakeups. EPOLLIN is disarmed only while the inbound window is full.
//   - EventClosed is injected exactly once per connection, always from
//     its poller goroutine (or the final Close sweep).

const (
	efdNonblock = 0x800   // EFD_NONBLOCK (== O_NONBLOCK)
	efdCloexec  = 0x80000 // EFD_CLOEXEC  (== O_CLOEXEC)

	// maxWritevBytes bounds one writev gather: enough to drain a large
	// response burst in one syscall without pinning the poller on a single
	// connection's backlog.
	maxWritevBytes = 1 << 20

	// acceptPause is how long a poller stops watching its listen fd after
	// fd exhaustion; with level-triggered epoll an unacceptable backlog
	// would otherwise busy-spin the loop.
	acceptPause = 50 * time.Millisecond

	// closeLinger bounds how long a finished connection's read side lingers
	// after netd closed it, giving the client time to drain the final
	// response before the socket goes away entirely.
	closeLinger = 5 * time.Second

	// soReusePort is SO_REUSEPORT on Linux; the syscall package predates
	// the option and never picked it up.
	soReusePort = 0xf
)

// testHookLinger, when non-nil, replaces closeLinger for listeners opened
// while it is set; tests shorten the linger with it.
var testHookLinger atomic.Pointer[time.Duration]

// pollerListener is the TCPFrontend for the epoll transport.
type pollerListener struct {
	inj     *Injector
	lport   uint16
	addr    *net.TCPAddr
	pollers []*poller
	closed  atomic.Bool
	once    sync.Once
	wg      sync.WaitGroup
	linger  time.Duration // closeLinger, or testHookLinger's value at listen

	// reserve is a spare fd (open on /dev/null) that poller.shedOne burns
	// to shed connections when the process is out of file descriptors; -1
	// when unavailable. Shared across pollers — exhaustion is a
	// process-wide condition.
	reserveMu sync.Mutex
	reserve   int
}

var _ Transport = (*pollerListener)(nil)
var _ TCPFrontend = (*pollerListener)(nil)

// listenPoller boots the epoll engine: one poller per netd shard, each
// with its own epoll instance, eventfd wake channel, and listen socket in
// the SO_REUSEPORT group.
func (nd *Netd) listenPoller(addr string, lport uint16) (TCPFrontend, error) {
	ta, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &pollerListener{inj: nd.inj, lport: lport, linger: closeLinger, reserve: -1}
	if h := testHookLinger.Load(); h != nil {
		l.linger = *h
	}
	if fd, err := syscall.Open("/dev/null", syscall.O_RDONLY|syscall.O_CLOEXEC, 0); err == nil {
		l.reserve = fd
	}
	n := len(nd.shards)
	for i := 0; i < n; i++ {
		p, err := newPoller(l, i)
		if err != nil {
			l.destroyPartial()
			return nil, err
		}
		l.pollers = append(l.pollers, p)
	}
	// First bind resolves the port (addr may be ":0"); the rest join the
	// reuseport group on the concrete port.
	for i, p := range l.pollers {
		fd, bound, err := listenSocket(ta)
		if err != nil {
			if i == 0 {
				l.destroyPartial()
				return nil, err
			}
			break // partial group still accepts, with less spread
		}
		if i == 0 {
			l.addr = bound
			ta = bound
		}
		p.lfd = fd
		if err := p.epollAdd(fd, syscall.EPOLLIN); err != nil {
			l.destroyPartial()
			return nil, err
		}
	}
	nd.AddTransport(l)
	for _, p := range l.pollers {
		l.wg.Add(1)
		go p.loop()
	}
	return l, nil
}

// destroyPartial releases fds of a listener that never started its loops.
func (l *pollerListener) destroyPartial() {
	for _, p := range l.pollers {
		if p.lfd >= 0 {
			syscall.Close(p.lfd)
		}
		p.epFile.Close()
		syscall.Close(p.wakefd)
	}
	if l.reserve >= 0 {
		syscall.Close(l.reserve)
	}
}

// Addr reports the bound listen address.
func (l *pollerListener) Addr() net.Addr { return l.addr }

// Close implements Transport: wake every poller, let each tear down its
// own fds and inject the final evCloseds, and wait for them to exit.
func (l *pollerListener) Close() {
	l.once.Do(func() {
		l.closed.Store(true)
		for _, p := range l.pollers {
			p.wake()
		}
		l.wg.Wait()
		// A poller that was mid-acceptBurst when the close landed may have
		// posted an adoption to a sibling that had already shut down; those
		// fds would otherwise leak (and their clients hang).
		for _, p := range l.pollers {
			p.opMu.Lock()
			ops := p.ops
			p.ops = nil
			p.opMu.Unlock()
			for _, op := range ops {
				if op.kind == opAdopt {
					syscall.Close(op.fd)
				}
			}
		}
		l.reserveMu.Lock()
		if l.reserve >= 0 {
			syscall.Close(l.reserve)
			l.reserve = -1
		}
		l.reserveMu.Unlock()
	})
}

// listenSocket opens one non-blocking SO_REUSEPORT listen socket on ta and
// reports the concrete bound address.
func listenSocket(ta *net.TCPAddr) (int, *net.TCPAddr, error) {
	family := syscall.AF_INET
	var sa syscall.Sockaddr
	ip := ta.IP
	ip4 := ip.To4()
	switch {
	case len(ip) == 0 || ip.IsUnspecified() || ip4 != nil:
		// IPv4 (":0" and friends bind the IPv4 wildcard).
		s4 := &syscall.SockaddrInet4{Port: ta.Port}
		if ip4 != nil {
			copy(s4.Addr[:], ip4)
		}
		sa = s4
	default:
		family = syscall.AF_INET6
		s6 := &syscall.SockaddrInet6{Port: ta.Port}
		copy(s6.Addr[:], ip.To16())
		sa = s6
	}
	fd, err := syscall.Socket(family, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, nil, err
	}
	syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soReusePort, 1); err != nil {
		syscall.Close(fd)
		return -1, nil, fmt.Errorf("netd: SO_REUSEPORT: %w", err)
	}
	if err := syscall.Bind(fd, sa); err != nil {
		syscall.Close(fd)
		return -1, nil, err
	}
	if err := syscall.Listen(fd, 4096); err != nil {
		syscall.Close(fd)
		return -1, nil, err
	}
	bsa, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return -1, nil, err
	}
	bound := &net.TCPAddr{}
	switch v := bsa.(type) {
	case *syscall.SockaddrInet4:
		bound.IP = append(net.IP(nil), v.Addr[:]...)
		bound.Port = v.Port
	case *syscall.SockaddrInet6:
		bound.IP = append(net.IP(nil), v.Addr[:]...)
		bound.Port = v.Port
	}
	return fd, bound, nil
}

// pollOp is one unit of cross-goroutine work posted to a poller.
type pollOp struct {
	kind int
	c    *pconn
	fd   int    // opAdopt
	id   uint64 // opAdopt
}

const (
	opAdopt      = iota // register an accepted fd on its owning poller
	opKickWrite         // outbound ring went empty→non-empty (or CloseOutbound)
	opResumeRead        // TakeInbound reopened the inbound window
)

// poller is one epoll loop, owning the fds whose connection ids hash to
// its index.
type poller struct {
	l      *pollerListener
	idx    int
	epfd   int
	wakefd int // eventfd; posting an op writes it to wake the parked loop
	lfd    int // this poller's listen socket, -1 if the group came up short

	// epFile wraps epfd (nonblocking) so the loop parks in the Go runtime's
	// own netpoller — epRaw.Read blocks this goroutine, not a thread, until
	// the epfd has ready events (an epoll fd is itself pollable) or the
	// file's read deadline passes. A goroutine blocked in a raw EpollWait
	// syscall gives up its P and must win one back on every wake, a
	// scheduler round trip a goroutine blocked in net.Conn.Read never pays;
	// parking the way net.Conn does erases that gap.
	epFile *os.File
	epRaw  syscall.RawConn

	// Poller-goroutine-only state.
	conns        map[int]*pconn // by fd
	lingering    []*pconn
	lingerNext   time.Time // earliest lingerAt among lingering (zero = none)
	acceptPaused time.Time // re-arm lfd after this instant (zero = armed)
	parkUntil    time.Time // read deadline currently set on epFile

	opMu        sync.Mutex
	ops         []pollOp
	wakePending bool

	wakeMu sync.Mutex // guards wakefd against close-vs-write during teardown
}

func newPoller(l *pollerListener, idx int) (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	wfd, _, errno := syscall.Syscall(syscall.SYS_EVENTFD2, 0, efdNonblock|efdCloexec, 0)
	if errno != 0 {
		syscall.Close(epfd)
		return nil, errno
	}
	p := &poller{l: l, idx: idx, epfd: epfd, wakefd: int(wfd), lfd: -1,
		conns: make(map[int]*pconn)}
	if err := p.epollAdd(p.wakefd, syscall.EPOLLIN); err != nil {
		syscall.Close(epfd)
		syscall.Close(int(wfd))
		return nil, err
	}
	// SetNonblock before NewFile so the os layer registers the epfd with
	// the runtime netpoller (os.NewFile only treats already-nonblocking
	// fds as pollable). epFile owns the fd from here on.
	if err := syscall.SetNonblock(epfd, true); err != nil {
		syscall.Close(epfd)
		syscall.Close(p.wakefd)
		return nil, err
	}
	p.epFile = os.NewFile(uintptr(epfd), "netd-epoll")
	if p.epRaw, err = p.epFile.SyscallConn(); err != nil {
		p.epFile.Close() // releases epfd
		syscall.Close(p.wakefd)
		return nil, err
	}
	return p, nil
}

func (p *poller) epollAdd(fd int, events uint32) error {
	ev := syscall.EpollEvent{Events: events, Fd: int32(fd)}
	return syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev)
}

func (p *poller) epollMod(fd int, events uint32) {
	ev := syscall.EpollEvent{Events: events, Fd: int32(fd)}
	syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, fd, &ev)
}

// post hands the poller an op and wakes it if it may be parked. Safe from
// any goroutine.
func (p *poller) post(op pollOp) {
	p.opMu.Lock()
	p.ops = append(p.ops, op)
	need := !p.wakePending
	p.wakePending = true
	p.opMu.Unlock()
	if need {
		p.wake()
	}
}

func (p *poller) wake() {
	// eventfd wants a host-order uint64; [8]byte{0:1} decodes to a nonzero
	// increment on either endianness, which is all a wake needs. wakeMu
	// keeps the write off a closed (possibly reused) fd during teardown.
	one := [8]byte{0: 1}
	p.wakeMu.Lock()
	if p.wakefd >= 0 {
		syscall.Write(p.wakefd, one[:])
	}
	p.wakeMu.Unlock()
}

func (p *poller) drainWake() {
	var buf [8]byte
	syscall.Read(p.wakefd, buf[:])
}

// loop is the poller: wait, run posted ops, service ready fds, sweep
// lingering closes. Everything a connection's fd needs happens here.
func (p *poller) loop() {
	defer p.l.wg.Done()
	events := make([]syscall.EpollEvent, 128)
	for {
		n, err := p.wait(events)
		if err != nil || p.l.closed.Load() {
			// A persistent epoll failure is fatal for this poller; tear
			// down as on Close so every owned connection gets its
			// EventClosed and no fd (listen/epoll/event/conn) leaks.
			p.shutdown()
			return
		}
		p.runOps()
		for i := 0; i < n; i++ {
			fd := int(events[i].Fd)
			evs := events[i].Events
			switch fd {
			case p.wakefd:
				p.drainWake()
			case p.lfd:
				p.acceptBurst()
			default:
				c := p.conns[fd]
				if c == nil {
					continue // stale event for a destroyed fd
				}
				if evs&syscall.EPOLLOUT != 0 {
					p.drainOut(c)
				}
				if c.destroyed {
					continue
				}
				if c.inEOF {
					// EPOLLHUP/EPOLLERR cannot be masked out: after a reset
					// they would re-fire every wait while the fd waits on the
					// shard's close round trip. The socket is dead both ways
					// at that point, so reap it now.
					if evs&(syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
						p.destroy(c)
					}
					continue
				}
				if evs&(syscall.EPOLLIN|epollRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0 {
					p.readReady(c)
				}
			}
		}
		p.runOps()
		p.sweepLinger()
		p.maybeResumeAccept()
	}
}

// epollRDHUP is EPOLLRDHUP; the syscall package predates it.
const epollRDHUP = 0x2000

// wait is the loop's one wait: park this goroutine in the runtime
// netpoller until the epoll set reports ready events, then collect them
// with a zero-timeout EpollWait. The callback runs once before parking, so
// an event that lands between the check and the park still wakes us. When
// a linger deadline or an accept pause is pending, the file's read
// deadline ends the park at that instant (n == 0) and the loop's sweep
// does the rest.
func (p *poller) wait(events []syscall.EpollEvent) (n int, err error) {
	until := p.lingerNext
	if a := p.acceptPaused; !a.IsZero() && (until.IsZero() || a.Before(until)) {
		until = a
	}
	if !until.Equal(p.parkUntil) {
		if err := p.epFile.SetReadDeadline(until); err != nil {
			return 0, err
		}
		p.parkUntil = until
	}
	rerr := p.epRaw.Read(func(fd uintptr) bool {
		for {
			if h := testHookEpollWait.Load(); h != nil {
				(*h)()
			}
			if n, err = syscall.EpollWait(int(fd), events, 0); err != syscall.EINTR {
				// closed is looked at again before every park: Close's wake
				// may already have been swallowed by the drainWake of an
				// iteration that checked closed just before Close set it.
				return n > 0 || err != nil || p.l.closed.Load()
			}
		}
	})
	if rerr != nil && err == nil && !errors.Is(rerr, os.ErrDeadlineExceeded) {
		err = rerr
	}
	return n, err
}

// testHookEpollWait, when non-nil, runs before every EpollWait call; tests
// count them to assert that an idle poller makes none.
var testHookEpollWait atomic.Pointer[func()]

func (p *poller) runOps() {
	p.opMu.Lock()
	ops := p.ops
	p.ops = nil
	p.wakePending = false
	p.opMu.Unlock()
	for _, op := range ops {
		switch op.kind {
		case opAdopt:
			p.adopt(op.fd, op.id)
		case opKickWrite:
			op.c.mu.Lock()
			op.c.kickQueued = false
			op.c.mu.Unlock()
			if !op.c.destroyed {
				p.drainOut(op.c)
			}
		case opResumeRead:
			op.c.mu.Lock()
			op.c.resQueued = false
			op.c.mu.Unlock()
			if !op.c.destroyed {
				p.resumeRead(op.c)
			}
		}
	}
}

// acceptBurst drains this poller's listen queue: accept4 non-blocking,
// allocate the id, and adopt locally or hand the fd to the owning poller.
// Registration and the evNewConn happen on the OWNING poller so the
// connection's whole event chain is one goroutine.
func (p *poller) acceptBurst() {
	if !p.acceptPaused.IsZero() {
		return
	}
	for i := 0; i < 256; i++ {
		if p.l.closed.Load() {
			return
		}
		nfd, _, err := syscall.Accept4(p.lfd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
		if err != nil {
			switch err {
			case syscall.EAGAIN:
				return
			case syscall.EINTR, syscall.ECONNABORTED:
				continue
			case syscall.EMFILE, syscall.ENFILE:
				// Shed one queued victim via the reserve fd so its client
				// sees an immediate close instead of an accepted-but-mute
				// socket, then stop watching the listen fd briefly —
				// level-triggered epoll would busy-spin on the backlog we
				// cannot accept.
				p.shedOne()
				p.pauseAccept()
				return
			default:
				return
			}
		}
		syscall.SetsockoptInt(nfd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
		if !p.l.inj.Listening(p.l.lport) {
			syscall.Close(nfd)
			continue
		}
		id := p.l.inj.NewID()
		owner := shard.OfU64(id, len(p.l.pollers))
		if owner == p.idx {
			p.adopt(nfd, id)
		} else {
			p.l.pollers[owner].post(pollOp{kind: opAdopt, fd: nfd, id: id})
		}
	}
}

func (p *poller) pauseAccept() {
	p.acceptPaused = time.Now().Add(acceptPause)
	p.epollMod(p.lfd, 0)
}

func (p *poller) maybeResumeAccept() {
	if p.acceptPaused.IsZero() || time.Now().Before(p.acceptPaused) {
		return
	}
	p.acceptPaused = time.Time{}
	p.epollMod(p.lfd, syscall.EPOLLIN)
}

// shedOne is the classic reserve-fd dance for accept-time fd exhaustion:
// close the spare fd, accept the connection that just failed for want of
// it, close that connection immediately (the client sees EOF and can retry
// elsewhere), and re-open the spare. One queued victim per call; the
// accept pause paces the rest.
func (p *poller) shedOne() {
	l := p.l
	l.reserveMu.Lock()
	defer l.reserveMu.Unlock()
	if l.reserve < 0 {
		return
	}
	syscall.Close(l.reserve)
	l.reserve = -1
	if nfd, _, err := syscall.Accept4(p.lfd, syscall.SOCK_CLOEXEC); err == nil {
		syscall.Close(nfd)
	}
	if fd, err := syscall.Open("/dev/null", syscall.O_RDONLY|syscall.O_CLOEXEC, 0); err == nil {
		l.reserve = fd
	}
}

// adopt registers a freshly accepted fd on this (owning) poller: publish
// to the Injector, announce with evNewConn, then start watching — the
// Register-before-inject order the Transport contract requires.
func (p *poller) adopt(fd int, id uint64) {
	if p.l.closed.Load() {
		syscall.Close(fd)
		return
	}
	c := &pconn{id: id, fd: fd, p: p}
	p.conns[fd] = c
	p.l.inj.Register(c)
	p.l.inj.EventNewConn(id, p.l.lport)
	if err := p.epollAdd(fd, syscall.EPOLLIN|epollRDHUP); err != nil {
		p.destroy(c)
	}
}

// interest recomputes and applies the fd's epoll mask from the connection
// flags. Caller must hold c.mu.
func (p *poller) interestLocked(c *pconn) {
	// Once the read side hit EOF nothing about readability is news, and
	// with the peer's FIN queued a level-triggered EPOLLRDHUP would fire on
	// every wait until the shard's CloseOutbound round trip lets the fd
	// die — a busy-spin that starves the very loops that end it. Drop the
	// whole read-side mask instead; the close handshake finishes over
	// opKickWrite/EPOLLOUT.
	var mask uint32
	if !c.inEOF {
		mask = epollRDHUP
		if !c.readPaused {
			mask |= syscall.EPOLLIN
		}
	}
	if c.wantWrite {
		mask |= syscall.EPOLLOUT
	}
	p.epollMod(c.fd, mask)
}

// readReady fills the inbound ring straight from the socket until EAGAIN,
// EOF, or a full window. Reads land in pooled ring chunks the shard's
// TakeInbound later views without a copy.
func (p *poller) readReady(c *pconn) {
	for {
		c.mu.Lock()
		if c.dead {
			c.mu.Unlock()
			return
		}
		if c.in.Len() >= connWindow {
			// Window full: stop watching EPOLLIN; TakeInbound posts an
			// opResumeRead when the shard drains. Kernel-side TCP flow
			// control pushes back on the sender meanwhile.
			c.readPaused = true
			p.interestLocked(c)
			c.mu.Unlock()
			return
		}
		w := c.in.Writable()
		if space := connWindow - c.in.Len(); len(w) > space {
			w = w[:space]
		}
		c.mu.Unlock()
		n, err := syscall.Read(c.fd, w)
		// Every reservation is committed, of 0 bytes when nothing arrived:
		// an open one would pin the ring's last chunk on a parked connection.
		c.mu.Lock()
		wasEmpty := c.in.Len() == 0
		c.in.Commit(max(n, 0))
		c.mu.Unlock()
		if n > 0 {
			// evData only on empty→non-empty, per the Transport contract:
			// while non-empty either an evData is in flight or the shard
			// has no pending read.
			if wasEmpty {
				p.l.inj.EventData(c.id)
			}
			if n < len(w) {
				return // short read: kernel buffer drained
			}
			continue
		}
		if n == 0 && err == nil {
			p.connEOF(c)
			return
		}
		switch err {
		case syscall.EAGAIN:
			return
		case syscall.EINTR:
			continue
		default:
			// Hard error (reset): nothing can move in either direction, so
			// surface the close and reap the fd in one step — EPOLLERR is
			// unmaskable and would otherwise re-fire until teardown.
			p.connEOF(c)
			p.destroy(c)
			return
		}
	}
}

// connEOF marks the read side finished and announces the close; the fd
// stays open until the outbound side drains (the client may still be
// reading its response).
func (p *poller) connEOF(c *pconn) {
	c.mu.Lock()
	c.inEOF = true
	p.interestLocked(c)
	outDone := c.outDone
	c.mu.Unlock()
	if !c.closedSent {
		c.closedSent = true
		p.l.inj.EventClosed(c.id)
	}
	if outDone {
		p.destroy(c)
	}
}

// testHookDrainOutEmpty, when non-nil, runs in drainOut's empty-ring path
// just before the disarm critical section — the window in which a
// concurrent PushOutbound (seeing wantWrite still armed, so posting no
// kick) must not be lost. Regression hook for the conformance suite.
var testHookDrainOutEmpty atomic.Pointer[func(c *pconn)]

// drainOut writevs the outbound ring into the socket until EAGAIN or
// empty. EPOLLOUT discipline: armed ONLY when a writev left backlog,
// disarmed the moment the ring drains.
func (p *poller) drainOut(c *pconn) {
	for {
		c.mu.Lock()
		if c.dead {
			c.mu.Unlock()
			return
		}
		c.views = c.out.Views(c.views[:0], maxWritevBytes)
		eof := c.outEOF
		c.mu.Unlock()
		if len(c.views) == 0 {
			if h := testHookDrainOutEmpty.Load(); h != nil {
				(*h)(c)
			}
			c.mu.Lock()
			if c.out.Len() != 0 {
				// A PushOutbound landed between the Views check and here.
				// It saw wantWrite still armed and skipped its kick, so if
				// we disarmed and returned now those bytes would strand
				// (no kick queued, EPOLLOUT off). Keep draining instead;
				// only disarm once the ring is empty IN this critical
				// section.
				c.mu.Unlock()
				continue
			}
			if c.wantWrite {
				c.wantWrite = false
				p.interestLocked(c)
			}
			c.mu.Unlock()
			if eof {
				p.finishOutbound(c)
			}
			return
		}
		total := 0
		for _, v := range c.views {
			total += len(v)
		}
		n, err := writevFd(c.fd, c.views, &c.iovs)
		if n > 0 {
			c.mu.Lock()
			c.out.Discard(n)
			c.mu.Unlock()
		}
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN || (err == nil && n < total) {
			// Kernel send buffer full: arm EPOLLOUT, come back when the
			// client drains. This is the only state that costs a write
			// wakeup.
			c.mu.Lock()
			if !c.wantWrite {
				c.wantWrite = true
				p.interestLocked(c)
			}
			c.mu.Unlock()
			return
		}
		if err != nil {
			p.destroy(c)
			return
		}
	}
}

// finishOutbound half-closes after CloseOutbound's bytes fully drained:
// the client reads a clean EOF after the final response. If the read side
// is already done the fd dies now; otherwise it lingers (bounded) for the
// client's own close.
func (p *poller) finishOutbound(c *pconn) {
	if c.outDoneApplied {
		return
	}
	c.outDoneApplied = true
	syscall.Shutdown(c.fd, syscall.SHUT_WR)
	c.mu.Lock()
	c.outDone = true
	inEOF := c.inEOF
	c.mu.Unlock()
	if inEOF {
		p.destroy(c)
		return
	}
	c.lingerAt = time.Now().Add(p.l.linger)
	p.lingering = append(p.lingering, c)
}

// sweepLinger reaps lingering connections whose time is up, drops the ones
// that died on their own, and records the earliest deadline left for wait.
func (p *poller) sweepLinger() {
	p.lingerNext = time.Time{}
	if len(p.lingering) == 0 {
		return
	}
	now := time.Now()
	live := p.lingering[:0]
	for _, c := range p.lingering {
		if c.destroyed {
			continue
		}
		if !now.Before(c.lingerAt) {
			p.destroy(c)
			continue
		}
		if p.lingerNext.IsZero() || c.lingerAt.Before(p.lingerNext) {
			p.lingerNext = c.lingerAt
		}
		live = append(live, c)
	}
	p.lingering = live
}

// resumeRead re-arms EPOLLIN after the shard drained the window;
// level-triggered epoll re-reports any bytes already queued in the kernel.
func (p *poller) resumeRead(c *pconn) {
	c.mu.Lock()
	if c.readPaused && c.in.Len() < connWindow {
		c.readPaused = false
		p.interestLocked(c)
	}
	c.mu.Unlock()
}

// destroy releases the fd and marks the connection dead, injecting the
// EventClosed if the read side never got to. The outbound ring (consumer:
// this goroutine) is recycled here; the inbound ring only if the shard is
// already done with the connection (inboundRing.done) — until then it may
// still drain what the socket delivered.
func (p *poller) destroy(c *pconn) {
	if c.destroyed {
		return
	}
	c.destroyed = true
	// dead must be set — under mu — BEFORE the fd closes: PushOutbound's
	// direct-write fast path writes the fd from the shard goroutine while
	// holding mu, and once the number is closed it can be reused by any
	// other accept or open in the process.
	c.mu.Lock()
	c.dead = true
	c.inEOF = true
	c.out.Reset()
	c.in.done()
	c.mu.Unlock()
	// No EPOLL_CTL_DEL: the close removes the registration, since an
	// accepted fd is SOCK_CLOEXEC and never duplicated, so it is the last
	// reference to its file.
	syscall.Close(c.fd)
	delete(p.conns, c.fd)
	if !c.closedSent {
		c.closedSent = true
		p.l.inj.EventClosed(c.id)
	}
}

// shutdown tears the poller down on listener Close.
func (p *poller) shutdown() {
	p.runOps() // adoptions posted before the close must not leak their fds
	for _, c := range p.conns {
		p.destroy(c)
	}
	if p.lfd >= 0 {
		syscall.Close(p.lfd)
	}
	p.wakeMu.Lock()
	syscall.Close(p.wakefd)
	p.wakefd = -1
	p.wakeMu.Unlock()
	p.epFile.Close()
}

// writevFd gathers views into one writev(2). iovs is caller-owned scratch,
// reused across calls.
func writevFd(fd int, views [][]byte, iovs *[]syscall.Iovec) (int, error) {
	iv := (*iovs)[:0]
	for _, v := range views {
		if len(v) == 0 {
			continue
		}
		var io syscall.Iovec
		io.Base = &v[0]
		io.SetLen(len(v))
		iv = append(iv, io)
	}
	*iovs = iv
	if len(iv) == 0 {
		return 0, nil
	}
	n, _, errno := syscall.Syscall(syscall.SYS_WRITEV,
		uintptr(fd), uintptr(unsafe.Pointer(&iv[0])), uintptr(len(iv)))
	runtime.KeepAlive(views)
	if errno != 0 {
		return 0, errno
	}
	return int(n), nil
}

// pconn is one socket on the epoll transport. The poller goroutine does
// all fd I/O; the owning shard's loop calls the WireConn methods, which
// touch only the rings under mu and post ops.
type pconn struct {
	id uint64
	fd int
	p  *poller

	mu  sync.Mutex
	in  inboundRing   // socket → Asbestos, capped at connWindow
	out buffered.Ring // Asbestos → socket, drained by writev

	inEOF      bool // socket read side finished (EOF or error)
	outEOF     bool // Asbestos closed outbound; drain then SHUT_WR
	outDone    bool // SHUT_WR sent (everything drained)
	readPaused bool // EPOLLIN disarmed: window full
	wantWrite  bool // EPOLLOUT armed: writev backlog
	dead       bool // fd gone; rings frozen
	kickQueued bool // opKickWrite posted, not yet run
	resQueued  bool // opResumeRead posted, not yet run

	// Poller-goroutine-only.
	destroyed      bool
	closedSent     bool
	outDoneApplied bool
	lingerAt       time.Time
	views          [][]byte
	iovs           []syscall.Iovec
}

var _ WireConn = (*pconn)(nil)

func (c *pconn) ID() uint64 { return c.id }

// inboundDone is the shard's last word on the in-ring (Injector.Unregister).
func (c *pconn) inboundDone() {
	c.mu.Lock()
	c.in.done()
	c.mu.Unlock()
}

// TakeInbound hands the shard a zero-copy view into the pooled ring and,
// when the window was full, posts the read-resume op.
func (c *pconn) TakeInbound(max int) (data []byte, eof bool) {
	c.mu.Lock()
	data = c.in.Take(max)
	if data == nil {
		eof = c.inEOF
		c.mu.Unlock()
		return nil, eof
	}
	resume := c.readPaused && !c.resQueued && !c.dead && c.in.Len() < connWindow
	if resume {
		c.resQueued = true
	}
	c.mu.Unlock()
	if resume {
		c.p.post(pollOp{kind: opResumeRead, c: c})
	}
	return data, false
}

// PushOutbound sends bytes. When there is no backlog — the out ring is
// empty and EPOLLOUT is disarmed, i.e. the common request/response case —
// it writes the socket DIRECTLY from the shard goroutine: the fd is
// non-blocking, so the write either completes or returns EAGAIN, and
// skipping the eventfd-wake → epoll_wait → writev round trip saves two
// thread handoffs per response. Holding mu makes this safe against
// teardown: destroy marks the connection dead under mu before it closes
// the fd, so a write in progress finishes before the fd number can be
// reused. Whatever the direct write could not place (EAGAIN, partial, or
// a backlog already queued) spills into the ring and kicks the poller on
// empty→non-empty; while backlog exists the poller already knows
// (EPOLLOUT armed or a kick pending), so a burst of replies costs one
// wake.
func (c *pconn) PushOutbound(b []byte) int {
	c.mu.Lock()
	if c.outEOF || c.dead {
		c.mu.Unlock()
		return 0
	}
	wrote := 0
	if c.out.Len() == 0 && !c.wantWrite && !c.kickQueued {
		for wrote < len(b) {
			n, err := syscall.Write(c.fd, b[wrote:])
			if n > 0 {
				wrote += n
				continue
			}
			if err == syscall.EINTR {
				continue
			}
			// EAGAIN: kernel buffer full, spill the rest. Hard error: spill
			// too — the poller's own writev hits the same error and runs
			// the one true teardown path.
			break
		}
		if wrote == len(b) {
			c.mu.Unlock()
			return wrote
		}
	}
	wasEmpty := c.out.Len() == 0
	c.out.Write(b[wrote:])
	kick := wasEmpty && !c.wantWrite && !c.kickQueued
	if kick {
		c.kickQueued = true
	}
	c.mu.Unlock()
	if kick {
		c.p.post(pollOp{kind: opKickWrite, c: c})
	}
	return len(b)
}

// CloseOutbound marks the Asbestos side done; the poller drains what is
// buffered, then half-closes.
func (c *pconn) CloseOutbound() {
	c.mu.Lock()
	if c.outEOF || c.dead {
		c.mu.Unlock()
		return
	}
	c.outEOF = true
	kick := !c.kickQueued
	if kick {
		c.kickQueued = true
	}
	c.mu.Unlock()
	if kick {
		c.p.post(pollOp{kind: opKickWrite, c: c})
	}
}

func (c *pconn) BufferState() (readable, writable int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := connWindow - c.out.Len()
	if w < 0 {
		w = 0
	}
	return c.in.Len(), w
}
