package netd

import (
	"sync"
	"time"

	"asbestos/internal/evloop"
	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/stats"
	"asbestos/internal/wire"
)

// EnvName is the environment key under which netd publishes its service
// port (bootstrap, paper §4).
const EnvName = "netd"

// Netd is the network server: one or more replicated event loops
// ("shards") on the shared internal/evloop runtime, each its own kernel
// process owning a disjoint slice of the connections by connection-id
// hash. The driver process deals every connection event straight to the
// owning shard's driver port, so per-shard connection state needs no
// locking; the service port (listen) lives on shard 0, which replicates
// listener registrations to the other shards over the runtime's forward
// ports.
//
// Create with New (one loop) or NewSharded, then run the loops on a
// goroutine with Run.
type Netd struct {
	sys *kernel.System
	inj *Injector
	nw  *Network
	g   *evloop.Group

	// idle is the per-connection inactivity bound (Options.IdleTimeout);
	// 0 means connections live until closed.
	idle time.Duration

	shards []*netdShard

	// transports are every event source feeding the shards — the simulated
	// Network always, plus any TCP front ends opened with ListenTCP. Stop
	// closes them all before stopping the loops.
	tmu        sync.Mutex
	transports []Transport
}

// netdShard is one event loop: its own process, driver port and connection
// table, touched only by its own loop. The loop skeleton — mailbox drain,
// Batcher flush, cross-shard forward grants, ctx-driven stop — lives in lp.
type netdShard struct {
	nd  *Netd
	idx int
	lp  *evloop.Shard

	proc *kernel.Process // lp's process

	servicePort *kernel.Port // shard 0 only; nil elsewhere
	driverPort  *kernel.Port

	conns     map[uint64]*sconn
	byPort    map[handle.Handle]*sconn
	listeners map[uint16][]handle.Handle // lport → notify ports, dealt round-robin
	rr        map[uint16]uint64          // per-lport notify rotation
	notifies  map[handle.Handle]bool     // every listener's notify port

	// taints counts, per taint handle uT, the live connections tainted
	// with it. The shard holds uT ⋆ and receives at uT 3 exactly while the
	// count is positive (untaint).
	taints map[handle.Handle]int

	// out is lp's Batcher, coalescing the shard's reply bursts: one
	// dispatch round can fulfill many reads, acks and connection
	// notifications; each destination port then receives its replies as one
	// SendBatch. Reply-port capabilities — all but listeners' notify ports —
	// are shed via out.DropAfter — only after the flush, since a buffered
	// reply still needs its ⋆ at enqueue time.
	out *kernel.Batcher
}

// sconn is a shard's per-connection state: the wrapped port endpoint, the
// optional taint handle, and reads awaiting data.
type sconn struct {
	c       WireConn
	port    *kernel.Port
	lport   uint16
	taint   handle.Handle
	pending []pendingRead
	closed  bool // Asbestos side closed it

	// idle is the connection's inactivity timer (nil without an
	// IdleTimeout); every port operation and wire event re-arms it, and
	// expiry closes the connection like a CtlClose nobody asked for.
	idle *evloop.Timer

	// replyOpts is the contamination applied to every reply once the
	// connection is tainted, built once at AddTaint time. Sharing the one
	// *SendOpts across a connection's replies lets SendBatch prepare the
	// labels once per batch instead of once per message.
	replyOpts *kernel.SendOpts
}

type pendingRead struct {
	reply handle.Handle
	max   int
}

// Options configures a netd beyond the defaults.
type Options struct {
	// Shards is the number of replicated event loops (<=0 means one).
	Shards int
	// IdleTimeout evicts and closes connections with no port operation or
	// wire activity for the given duration — the coarse backstop under the
	// demux's per-request deadlines, catching connections whose owner has
	// forgotten them entirely. 0 disables.
	IdleTimeout time.Duration
}

// New boots a single-loop netd on sys; NewSharded replicates the loop, and
// NewOpts exposes every knob.
func New(sys *kernel.System) *Netd {
	return NewSharded(sys, 1)
}

// NewSharded boots netd with n replicated event loops.
func NewSharded(sys *kernel.System, n int) *Netd {
	return NewOpts(sys, Options{Shards: n})
}

// NewOpts boots netd from Options. It creates one evloop shard and driver
// port per loop plus the hidden driver process, and publishes shard 0's
// service port under EnvName.
func NewOpts(sys *kernel.System, o Options) *Netd {
	g := evloop.New(sys, evloop.Config{
		Name:     "netd",
		Shards:   o.Shards,
		Category: stats.CatNetwork,
	})
	n := g.Shards()
	nd := &Netd{sys: sys, g: g, idle: o.IdleTimeout}

	// The driver process models the interrupt path: it injects connection
	// events, dealing each to the shard owning the connection. Driver ports
	// are closed by capability ({drv 0, 3}), so the driver is granted ⋆ for
	// each; shard-to-shard traffic (evListen replication) travels on the
	// runtime's forward ports, whose grants the evloop Group already
	// exchanged.
	drv := sys.NewProcess("netdrv")
	drivers := make([]*kernel.Port, n)
	var grants []kernel.BootstrapGrant
	for i := 0; i < n; i++ {
		lp := g.Shard(i)
		proc := lp.Proc()
		s := &netdShard{
			nd:        nd,
			idx:       i,
			lp:        lp,
			proc:      proc,
			conns:     make(map[uint64]*sconn),
			byPort:    make(map[handle.Handle]*sconn),
			listeners: make(map[uint16][]handle.Handle),
			rr:        make(map[uint16]uint64),
			notifies:  make(map[handle.Handle]bool),
			taints:    make(map[handle.Handle]int),
			out:       lp.Out(),
		}
		if i == 0 {
			svc := proc.Open(nil)
			if err := svc.SetLabel(label.Empty(label.L3)); err != nil {
				panic(err)
			}
			s.servicePort = svc
			lp.Handle(svc, s.handleService)
		}
		s.driverPort = proc.Open(nil)
		lp.Handle(s.driverPort, s.handleDriver)
		lp.HandleForward(s.handleShard)
		lp.HandleDefault(s.handleConnPort)
		grants = append(grants, kernel.BootstrapGrant{
			From: proc, Handles: []handle.Handle{s.driverPort.Handle()},
		})
		nd.shards = append(nd.shards, s)
	}
	kernel.BootstrapGrants(drv, grants)
	for i, s := range nd.shards {
		drivers[i] = drv.Port(s.driverPort.Handle())
	}

	nd.inj = newInjector(drv, drivers)
	nd.nw = newNetwork(nd.inj)
	nd.transports = []Transport{nd.nw}
	sys.SetEnv(EnvName, nd.shards[0].servicePort.Handle())
	return nd
}

// Injector exposes the event hub so additional transports can be built on
// top of this netd (tests, custom drivers). ListenTCP covers the common
// case.
func (nd *Netd) Injector() *Injector { return nd.inj }

// AddTransport records a transport for teardown: Stop closes it before
// stopping the shard loops.
func (nd *Netd) AddTransport(t Transport) {
	nd.tmu.Lock()
	nd.transports = append(nd.transports, t)
	nd.tmu.Unlock()
}

// Network returns the simulated wire for remote peers.
func (nd *Netd) Network() *Network { return nd.nw }

// ServicePort returns netd's request port (owned by shard 0).
func (nd *Netd) ServicePort() handle.Handle { return nd.shards[0].servicePort.Handle() }

// ShardCount reports the number of replicated loops.
func (nd *Netd) ShardCount() int { return len(nd.shards) }

// Process returns shard 0's kernel process (for label inspection in tests
// and experiments). With multiple shards, each shard's labels hold only the
// users of the live connections it owns; Processes exposes all of them.
func (nd *Netd) Process() *kernel.Process { return nd.shards[0].proc }

// Processes returns every shard's kernel process.
func (nd *Netd) Processes() []*kernel.Process {
	out := make([]*kernel.Process, len(nd.shards))
	for i, s := range nd.shards {
		out[i] = s.proc
	}
	return out
}

// Run runs every shard's event loop on the evloop runtime; it returns when
// Stop cancels the group context (or the processes are killed). Deliveries
// are dispatched in bursts so the reply traffic they generate —
// read replies, write acks, new-connection notifications — coalesces into
// one SendBatch per destination.
func (nd *Netd) Run() { nd.g.Run() }

// Stop shuts netd down: it closes every transport (so no new connections
// or events arrive, and Dial returns ErrClosed), then cancels the lifecycle
// context, which returns Run and releases every shard process's kernel
// state.
func (nd *Netd) Stop() {
	nd.tmu.Lock()
	ts := append([]Transport(nil), nd.transports...)
	nd.tmu.Unlock()
	for _, t := range ts {
		t.Close()
	}
	nd.g.Stop()
}

// handleConnPort is the shard's fallback handler: deliveries to the
// per-connection ports tracked in byPort.
func (s *netdShard) handleConnPort(d *kernel.Delivery) {
	if sc := s.byPort[d.Port]; sc != nil {
		s.handleConn(sc, d)
	}
}

// handleService runs on shard 0 only (it owns the service port).
func (s *netdShard) handleService(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	if op != opListen {
		return
	}
	lport := r.U16()
	notify := r.Handle()
	if r.Err() {
		return
	}
	// Replicate the registration to the sibling shards BEFORE marking
	// the port listening: a Dial that sneaks in after markListening
	// produces an evNewConn that is pushed to the owning shard's
	// process queue after this broadcast, so per-process FIFO order
	// guarantees the shard knows the listener by then (the forward port
	// and the driver port feed the same queue). The sends are direct —
	// a batched replication would flush after markListening and lose
	// that ordering. The listener's ⋆ (granted to this shard by the
	// Listen message) is re-granted alongside — a sibling's
	// notifications to a capability-closed notify port would otherwise
	// be dropped.
	for _, sib := range s.nd.shards {
		if sib == s {
			s.addListener(lport, notify)
			continue
		}
		msg := wire.NewWriter(evListen).U16(lport).Handle(notify).Done()
		s.lp.Peer(sib.idx).Send(msg, &kernel.SendOpts{
			//asbestos:keepstar listener every shard holds the notify-port ⋆ for as long as the listen registration lives, or sibling accept notifications would be capability-dropped
			DecontSend: kernel.Grant(notify),
		})
	}
	s.nd.inj.markListening(lport)
}

// addListener records a notify port for lport (deduplicated).
func (s *netdShard) addListener(lport uint16, notify handle.Handle) {
	for _, h := range s.listeners[lport] {
		if h == notify {
			return
		}
	}
	s.listeners[lport] = append(s.listeners[lport], notify)
	s.notifies[notify] = true
}

// newSconn wraps a connection in a fresh Asbestos port whose label starts
// as {uC 0, 2}: nobody but this netd shard can send to it until access is
// granted (Figure 5 step 1). With an IdleTimeout the inactivity timer
// starts here — a connection nobody ever touches still gets reclaimed.
func (s *netdShard) newSconn(c WireConn, lport uint16) *sconn {
	port := s.proc.Open(label.Empty(label.L2))
	sc := &sconn{c: c, port: port, lport: lport}
	s.conns[c.ID()] = sc
	s.byPort[port.Handle()] = sc
	if s.nd.idle > 0 {
		sc.idle = s.lp.Timer(func(time.Time) { s.idleExpire(sc) })
		sc.idle.Arm(time.Now().Add(s.nd.idle))
	}
	return sc
}

// touchIdle pushes sc's inactivity deadline out; called on every port
// operation and wire event.
func (sc *sconn) touchIdle(idle time.Duration) {
	if sc.idle != nil && !sc.closed {
		sc.idle.Arm(time.Now().Add(idle))
	}
}

// idleExpire reclaims a connection with no activity for the idle bound:
// exactly the CtlClose teardown, initiated by netd instead of the owner.
// The remote peer sees EOF; a demux or worker still holding uC sees its
// next read answer EOF and tears its own state down.
func (s *netdShard) idleExpire(sc *sconn) {
	if sc.closed || s.byPort[sc.port.Handle()] != sc {
		return
	}
	sc.closed = true
	sc.c.CloseOutbound()
	s.fulfillReads(sc) // pending reads get EOF
	s.teardown(sc)
}

// teardown releases a closed connection: its port and capability go away,
// the label churn the paper charges per connection ("... and then to
// release that capability when the connection is ... closed", §9.3), and
// its taint is uncounted.
func (s *netdShard) teardown(sc *sconn) {
	if sc.idle != nil {
		sc.idle.Stop()
	}
	sc.port.Dissociate()
	s.proc.DropPrivilege(sc.port.Handle(), label.L1)
	s.untaint(sc)
	delete(s.conns, sc.c.ID())
	delete(s.byPort, sc.port.Handle())
	// The registry tracks live connections only: without this, every
	// connection ever opened would pin its WireConn (and, for TCP, its
	// socket buffers) until process exit.
	s.nd.inj.Unregister(sc.c.ID())
}

func (s *netdShard) handleDriver(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	switch op {
	case evNewConn:
		id := r.U64()
		lport := r.U16()
		if r.Err() {
			return
		}
		c := s.nd.inj.Conn(id)
		if c == nil {
			return
		}
		notifies := s.listeners[lport]
		if len(notifies) == 0 {
			// No listener by the time the event is dispatched (e.g. the demux
			// already stopped): refuse the connection instead of leaking it in
			// the registry forever.
			c.CloseOutbound()
			s.nd.inj.Unregister(id)
			return
		}
		// Deal the connection to the next listener endpoint round-robin —
		// with a sharded demux, each lport has one notify port per demux
		// shard, and this rotation is what spreads fresh connections across
		// them. Figure 5 step 2: notify the listener, granting uC at ⋆. A
		// burst of new connections reaches each listener as one batch.
		sc := s.newSconn(c, lport)
		notify := notifies[s.rr[lport]%uint64(len(notifies))]
		s.rr[lport]++
		msg := wire.NewWriter(OpNewConnNotify).Handle(sc.port.Handle()).U16(lport).Done()
		s.out.Add(notify, msg, &kernel.SendOpts{DecontSend: kernel.Grant(sc.port.Handle())})
	case evData, evClosed:
		id := r.U64()
		if r.Err() {
			return
		}
		if sc := s.conns[id]; sc != nil {
			sc.touchIdle(s.nd.idle)
			s.fulfillReads(sc)
		}
	}
}

// handleShard processes shard-internal traffic on the evloop forward port:
// listener replications from shard 0.
func (s *netdShard) handleShard(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	if op != evListen {
		return
	}
	lport := r.U16()
	notify := r.Handle()
	if r.Err() {
		return
	}
	s.addListener(lport, notify)
}

func (s *netdShard) handleConn(sc *sconn, d *kernel.Delivery) {
	sc.touchIdle(s.nd.idle)
	op, r := wire.NewReader(d.Data)
	switch op {
	case opRead:
		reply := r.Handle()
		max := int(r.U32())
		if r.Err() {
			return
		}
		sc.pending = append(sc.pending, pendingRead{reply, max})
		s.fulfillReads(sc)
	case opWrite:
		reply := r.Handle()
		data := r.Bytes()
		if r.Err() {
			return
		}
		n := 0
		if !sc.closed {
			n = sc.c.PushOutbound(data)
		}
		if reply != handle.None {
			s.reply(sc, reply, wire.NewWriter(OpWriteReply).U32(uint32(n)).Done())
		}
	case opControl:
		reply := r.Handle()
		cmd := r.Byte()
		if r.Err() {
			return
		}
		okb := byte(0)
		if cmd == CtlClose && !sc.closed {
			sc.closed = true
			sc.c.CloseOutbound()
			okb = 1
		}
		s.fulfillReads(sc) // pending reads now get EOF
		if reply != handle.None {
			s.reply(sc, reply, wire.NewWriter(OpControlReply).Byte(okb).Done())
		}
		if okb == 1 {
			s.teardown(sc)
		}
	case opAddTaint:
		reply := r.Handle()
		taint := r.Handle()
		if r.Err() || !taint.Valid() {
			return
		}
		if taint != sc.taint {
			// The sender granted us taint ⋆ (AddTaint's DS), so this shard
			// may raise its own receive label and the port label:
			// {uC 0, uT 3, 2} (Figure 5 step 5). A repeated AddTaint with
			// the same handle changes nothing and counts nothing.
			if err := s.proc.RaiseRecv(taint, label.L3); err != nil {
				return
			}
			s.untaint(sc)
			sc.taint = taint
			s.taints[taint]++
			sc.replyOpts = &kernel.SendOpts{Contaminate: kernel.Taint(label.L3, taint)}
			pl := label.New(label.L2,
				label.Entry{H: sc.port.Handle(), L: label.L0},
				label.Entry{H: taint, L: label.L3})
			sc.port.SetLabel(pl)
		}
		s.reply(sc, reply, wire.NewWriter(OpAddTaintReply).Byte(1).Handle(sc.port.Handle()).Done())
	}
}

// untaint uncounts sc's taint handle uT. The last live connection tainted
// with uT takes the shard's privilege over uT with it: the receive label
// goes back to uT 2 and uT ⋆ is dropped, so netd's labels hold the users
// it serves now, not every user it has ever served. The next connection
// tainted with uT comes with a fresh grant from the demux.
func (s *netdShard) untaint(sc *sconn) {
	uT := sc.taint
	if !uT.Valid() {
		return
	}
	sc.taint = handle.None
	if s.taints[uT]--; s.taints[uT] > 0 {
		return
	}
	delete(s.taints, uT)
	s.proc.LowerRecv(label.New(label.L3, label.Entry{H: uT, L: label.DefaultRecv}))
	s.proc.DropPrivilege(uT, label.DefaultSend)
}

// fulfillReads answers queued reads that can now complete.
func (s *netdShard) fulfillReads(sc *sconn) {
	for len(sc.pending) > 0 {
		pr := sc.pending[0]
		data, eof := sc.c.TakeInbound(pr.max)
		if sc.closed {
			eof = true
		}
		if data == nil && !eof {
			return // still waiting
		}
		sc.pending = sc.pending[1:]
		eofb := byte(0)
		if data == nil {
			eofb = 1
		}
		s.reply(sc, pr.reply, wire.NewWriter(OpReadReply).Byte(eofb).Bytes(data).Handle(sc.port.Handle()).Done())
	}
}

// reply buffers a response, contaminated with the connection's taint when
// set ("netd will respond to all messages on uC with replies contaminated
// with uT 3", Figure 5 step 5). Replies to one port leave as a single
// SendBatch at the end of the dispatch burst.
func (s *netdShard) reply(sc *sconn, to handle.Handle, msg []byte) {
	var opts *kernel.SendOpts
	if sc.taint.Valid() {
		opts = sc.replyOpts
	}
	s.out.Add(to, msg, opts)
	// A reply-port capability was granted for this exchange only; shed it
	// — after the flush, since the buffered reply may depend on it — so
	// the shard's send label stays proportional to users + open connections,
	// not to total messages handled. A listener's notify port is the
	// exception: its ⋆ came with the listen registration and lives as long.
	if !s.notifies[to] {
		s.out.DropAfter(to)
	}
}
