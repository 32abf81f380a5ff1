package netd

import (
	"sync"
	"sync/atomic"

	"asbestos/internal/buffered"
	"asbestos/internal/kernel"
	"asbestos/internal/shard"
	"asbestos/internal/wire"
)

// WireConn is one transport-level connection as the netd shards see it: a
// pair of byte buffers between the remote peer and the owning shard. The
// simulated Network's Conn and the TCP driver's socket connection both
// implement it; the shards never know which they are holding.
//
// All methods are called from the owning shard's loop goroutine, while the
// transport's own goroutines (remote writers, socket readers) feed the
// other side — implementations synchronize internally.
type WireConn interface {
	// ID is the connection id the transport drew from the Injector; it
	// never changes and determines the owning shard (shard.OfU64).
	ID() uint64
	// TakeInbound removes up to max buffered inbound bytes (remote →
	// Asbestos), reporting eof once the remote has closed and the buffer
	// is empty. The returned slice may be a view into transport-owned
	// pooled storage: it is valid only until the next TakeInbound on the
	// same connection, so the caller must consume (or copy) it before
	// taking again. netd's read path serializes it into a wire message
	// immediately, which is what makes the zero-copy socket paths legal.
	TakeInbound(max int) (data []byte, eof bool)
	// PushOutbound queues outbound bytes (Asbestos → remote), returning
	// how many were accepted. A transport with a bounded outbound window
	// accepts a prefix when the window is full — the caller must never be
	// blocked: a stuck client parks only its own connection, not the loop.
	PushOutbound(b []byte) int
	// CloseOutbound marks the Asbestos side closed: buffered outbound
	// bytes still drain to the remote, then the remote sees EOF.
	CloseOutbound()
	// BufferState reports (inbound bytes readable, outbound window space).
	BufferState() (readable, writable int)
}

// Transport is one source of wire connections feeding the netd shards.
// The contract (also stated in the package doc):
//
//   - The transport creates connections and assigns each an id via
//     Injector.NewID — ids are unique across every transport of one netd.
//   - It Registers the WireConn BEFORE injecting any event for it, then
//     announces it with an evNewConn; evData/evClosed follow, in order.
//     Each connection's events must be injected in a happens-before chain
//     (one goroutine, or goroutines ordered by start/channel edges), so
//     the owning shard observes evNewConn ≺ evData* ≺ evClosed.
//   - netd owns the shard hash: the Injector deals every event to shard
//     shard.OfU64(id, N), and teardown (Unregister) is netd's — the
//     transport never removes a registered connection itself.
//
// Close tears the transport down: it stops producing connections. The TCP
// front end stops accepting and shuts its sockets; the simulated wire
// fails later Dials with ErrClosed.
type Transport interface {
	Close()
}

// Injector is the shared hub between netd's shards and its transports: the
// connection-id allocator, the id → WireConn registry, the listening-port
// set, and the driver process whose sends deal events to the owning
// shard's driver port. It models the paper's interrupt path — transports
// are the "hardware" feeding it.
type Injector struct {
	drv     *kernel.Process
	drivers []*kernel.Port

	nextID atomic.Uint64

	mu        sync.Mutex
	conns     map[uint64]WireConn
	listening map[uint16]bool
}

func newInjector(drv *kernel.Process, drivers []*kernel.Port) *Injector {
	return &Injector{
		drv:       drv,
		drivers:   drivers,
		conns:     make(map[uint64]WireConn),
		listening: make(map[uint16]bool),
	}
}

// NewID allocates the next connection id (ids start at 1; 0 is never
// issued). The id fixes the owning shard for the connection's lifetime.
func (j *Injector) NewID() uint64 { return j.nextID.Add(1) }

// Register publishes a connection so the owning shard can resolve it when
// its evNewConn arrives. Transports must register before injecting.
func (j *Injector) Register(c WireConn) {
	j.mu.Lock()
	j.conns[c.ID()] = c
	j.mu.Unlock()
}

// Unregister removes a connection from the registry; netd calls it at
// teardown so the registry tracks live connections, not history. It is the
// shard's last word on the connection: no WireConn call follows, so a
// transport with pooled inbound storage is told it may take it back.
func (j *Injector) Unregister(id uint64) {
	j.mu.Lock()
	c := j.conns[id]
	delete(j.conns, id)
	j.mu.Unlock()
	if c, ok := c.(interface{ inboundDone() }); ok {
		c.inboundDone()
	}
}

// inboundRing is a real-socket connection's pooled inbound ring with its
// teardown rule. Two parties use the ring — the owning shard (until
// Injector.Unregister) and the poller (until its destroy) — and neither can
// see the other's progress, so each calls done once, under the connection
// mutex, when it is finished: the second call returns the chunks to the
// pool. By then the producer holds no Writable reservation and the shard
// can hold no TakeInbound view.
type inboundRing struct {
	buffered.Ring
	halfDone bool
}

func (r *inboundRing) done() {
	if r.halfDone {
		r.Reset()
	}
	r.halfDone = true
}

// Conn resolves a registered connection (nil if unknown or torn down).
func (j *Injector) Conn(id uint64) WireConn {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.conns[id]
}

// Event injects a driver event for connection id, dealt to the shard
// owning that id — one connection's events never split across loops. Send
// errors are dropped like a real interrupt against a dead driver: during
// teardown the shard processes exit before the transports stop.
func (j *Injector) Event(id uint64, msg []byte) {
	j.drivers[shard.OfU64(id, len(j.drivers))].Send(msg, nil)
}

// EventNewConn announces a freshly registered connection on lport.
func (j *Injector) EventNewConn(id uint64, lport uint16) {
	j.Event(id, wire.NewWriter(evNewConn).U64(id).U16(lport).Done())
}

// EventData signals buffered inbound bytes for id.
func (j *Injector) EventData(id uint64) {
	j.Event(id, wire.NewWriter(evData).U64(id).Done())
}

// EventClosed signals the remote closed id.
func (j *Injector) EventClosed(id uint64) {
	j.Event(id, wire.NewWriter(evClosed).U64(id).Done())
}

// Conns visits every registered connection under the registry lock — a
// diagnostics hook (the load generator uses it to report connections with
// bytes stranded in either buffer). f must not call back into the
// Injector.
func (j *Injector) Conns(f func(WireConn)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, c := range j.conns {
		f(c)
	}
}

// ConnCount reports how many connections are currently registered — i.e.
// accepted by a transport and not yet torn down. A co-located load
// generator uses it to gate its request barrier on the server actually
// holding every connection, not just on the kernel handshakes completing.
func (j *Injector) ConnCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.conns)
}

// Listening reports whether lport currently accepts connections. Every
// transport consults the same set: netd's service loop is the single
// writer (markListening), so the simulated wire and a TCP listener agree
// on which ports are open.
func (j *Injector) Listening(lport uint16) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.listening[lport]
}

// markListening records that netd processed a Listen for lport.
func (j *Injector) markListening(lport uint16) {
	j.mu.Lock()
	j.listening[lport] = true
	j.mu.Unlock()
}
