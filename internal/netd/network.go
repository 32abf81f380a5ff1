package netd

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"asbestos/internal/wire"
)

// connWindow bounds each direction's in-flight bytes, standing in for a TCP
// window. Remote writers block when the window toward Asbestos is full; the
// netd side is never blocked — PushOutbound accepts what fits.
const connWindow = 256 * 1024

// ErrRefused is returned by Dial when nothing listens on the port.
var ErrRefused = errors.New("netd: connection refused")

// ErrClosed is returned on operations over a closed connection or
// network.
var ErrClosed = errors.New("netd: connection closed")

// Network is the simulated wire: the world outside the Asbestos box, and
// the Transport the netd test suites and benchmarks run over. Remote peers
// only dial in: Dial connects to an Asbestos listener, and nothing inside
// Asbestos opens a connection outward. It substitutes for the paper's
// gigabit LAN and HTTP load generator host. On Linux, ListenTCP's epoll
// poller carries real sockets beside it; on other platforms this is the
// only wire (ListenTCP returns ErrTCPUnsupported).
type Network struct {
	inj    *Injector
	closed atomic.Bool
}

var _ Transport = (*Network)(nil)

func newNetwork(inj *Injector) *Network {
	return &Network{inj: inj}
}

// Dial opens a connection from the simulated remote host to an Asbestos
// listener on lport.
func (nw *Network) Dial(lport uint16) (*Conn, error) {
	if nw.closed.Load() {
		return nil, ErrClosed
	}
	if !nw.inj.Listening(lport) {
		return nil, ErrRefused
	}
	c := newConn(nw.inj, nw.inj.NewID())
	nw.inj.Register(c)
	nw.inj.EventNewConn(c.id, lport)
	return c, nil
}

// Listening reports whether lport currently accepts connections (set once
// netd's service loop has processed the Listen request; the OKWS launcher
// waits on it so a stack is dialable the moment Launch returns).
func (nw *Network) Listening(lport uint16) bool {
	return nw.inj.Listening(lport)
}

// Close tears the simulated wire down (Transport contract): future Dials
// fail with ErrClosed.
func (nw *Network) Close() { nw.closed.Store(true) }

// Conn is the remote peer's endpoint of one simulated TCP connection.
// Read/Write/Close are called from remote-host goroutines (the load
// generator); the netd process works the other end through the WireConn
// methods.
type Conn struct {
	inj *Injector
	id  uint64

	mu   sync.Mutex
	cond *sync.Cond

	toNetd    []byte // remote → Asbestos
	fromNetd  []byte // Asbestos → remote
	remoteEOF bool   // remote closed (no more toNetd data)
	netdEOF   bool   // Asbestos side closed (no more fromNetd data)
}

var _ WireConn = (*Conn)(nil)

func newConn(inj *Injector, id uint64) *Conn {
	c := &Conn{inj: inj, id: id}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Write queues data toward Asbestos, blocking while the window is full.
func (c *Conn) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		c.mu.Lock()
		for len(c.toNetd) >= connWindow && !c.netdEOF && !c.remoteEOF {
			c.cond.Wait()
		}
		if c.netdEOF || c.remoteEOF {
			c.mu.Unlock()
			return total, ErrClosed
		}
		n := connWindow - len(c.toNetd)
		if n > len(b) {
			n = len(b)
		}
		c.toNetd = append(c.toNetd, b[:n]...)
		c.mu.Unlock()
		c.inj.Event(c.id, wire.NewWriter(evData).U64(c.id).Done())
		b = b[n:]
		total += n
	}
	return total, nil
}

// Read blocks for data from Asbestos; it returns io.EOF once the Asbestos
// side has closed and the buffer is drained.
func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.fromNetd) == 0 && !c.netdEOF {
		c.cond.Wait()
	}
	if len(c.fromNetd) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.fromNetd)
	c.fromNetd = c.fromNetd[n:]
	return n, nil
}

// Close shuts the remote side.
func (c *Conn) Close() error {
	c.mu.Lock()
	already := c.remoteEOF
	c.remoteEOF = true
	c.cond.Broadcast()
	c.mu.Unlock()
	if !already {
		c.inj.Event(c.id, wire.NewWriter(evClosed).U64(c.id).Done())
	}
	return nil
}

// --- WireConn: the netd-side buffer access (owning shard only) ---

// ID implements WireConn.
func (c *Conn) ID() uint64 { return c.id }

// TakeInbound removes up to max buffered bytes heading into Asbestos,
// reporting eof once the remote has closed and the buffer is empty.
func (c *Conn) TakeInbound(max int) (data []byte, eof bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.toNetd) == 0 {
		return nil, c.remoteEOF
	}
	if max > len(c.toNetd) {
		max = len(c.toNetd)
	}
	data = append([]byte(nil), c.toNetd[:max]...)
	c.toNetd = c.toNetd[max:]
	c.cond.Broadcast() // wake writers blocked on the window
	return data, false
}

// PushOutbound appends outbound data for the remote peer. The simulated
// wire's remote buffer is unbounded (a test client that never reads parks
// bytes, never the shard), so everything is accepted unless closed.
func (c *Conn) PushOutbound(b []byte) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remoteEOF || c.netdEOF {
		return 0
	}
	c.fromNetd = append(c.fromNetd, b...)
	c.cond.Broadcast()
	return len(b)
}

// CloseOutbound marks the Asbestos side closed.
func (c *Conn) CloseOutbound() {
	c.mu.Lock()
	c.netdEOF = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// BufferState reports (readable by netd, window space toward remote).
func (c *Conn) BufferState() (readable, writable int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := connWindow - len(c.fromNetd)
	if w < 0 {
		w = 0
	}
	return len(c.toNetd), w
}
