package okws

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"asbestos/internal/dbproxy"
	"asbestos/internal/handle"
	"asbestos/internal/httpmsg"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/mem"
	"asbestos/internal/netd"
	"asbestos/internal/shard"
	"asbestos/internal/stats"
	"asbestos/internal/wire"
)

// Memory layout of a worker event process. Session data lives in its own
// region so that ep_clean of the scratch region (the "stack") leaves it
// intact, reproducing the paper's one-private-page cached sessions (§9.1).
//
// Each persistent region holds one record (storeRecord/loadRecord): a u32
// byte count, then an internal/wire message whose op byte tags what the
// region holds. A record must end before the next region starts: the
// session metadata at SessionAddr before sessionDataAddr, the app data
// before ScratchAddr. A session whose metadata would reach sessionDataAddr
// is refused.
const (
	// SessionAddr is where session metadata is stored.
	SessionAddr mem.Addr = 0x10000
	// ScratchAddr is the per-request temporary region, cleaned before
	// every yield.
	ScratchAddr mem.Addr = 0x40000
	// ScratchSize bounds the scratch region.
	ScratchSize = 64 * mem.PageSize
	// kaAddr is where the session's parked keep-alive connections are
	// recorded (port, connection, leftover bytes per entry). Like the
	// session region it survives ep_clean — it sits above the scratch
	// region, whose ep_clean would revert it. The address space is sparse
	// (4 KiB pages on first write), so the gap costs nothing.
	kaAddr mem.Addr = 0x100000
)

// Record tags, the op byte of each region's record.
const (
	recSession = 1 + iota // user, uid, uT, uG, uW, reply port
	recParked             // u16 count, then per entry: port, conn, leftover
	recData               // Ctx.SessionStore's bytes
)

// maxParkedConns bounds how many keep-alive connections one session can
// hold parked at once — a session is one user, and one user fronting many
// devices or tabs legitimately holds many idle connections, so the bound
// is a resource cap, not a structural limit. maxKALeftover bounds the
// partial-request bytes a parked entry may carry (a trickling sender past
// it is cut off, which keeps a full park table to a few dozen pages).
const (
	maxParkedConns = 256
	maxKALeftover  = 1024
)

// Handler is a worker's application logic, invoked once per HTTP request
// with the request and the per-user context. This is the untrusted code of
// the paper's threat model: even a malicious Handler cannot violate user
// isolation.
type Handler func(c *Ctx, req *httpmsg.Request) *httpmsg.Response

// Worker is one OKWS service: a base process that forks an event process
// per user session.
type Worker struct {
	sys     *kernel.System
	proc    *kernel.Process
	name    string
	handler Handler

	basePort *kernel.Port
	// sessPorts are the demux shards' session ports, route cached; a user's
	// session registers with the shard owning the user (shard.Of), the same
	// shard that decides that user's handoffs. proxyPorts are the dbproxy
	// replicas' worker ports; queries dispatch by the same user hash.
	sessPorts  []*kernel.Port
	proxyPorts []*kernel.Port

	// ctx is the worker lifecycle: Run returns when Stop cancels it, and
	// every blocking receive inside a request honors it.
	ctx    context.Context
	cancel context.CancelFunc

	declassifier bool
	keepSessions bool

	// reqDeadline bounds each request served on a woken keep-alive
	// connection (the demux stamps first requests with its own remaining
	// deadline; later requests on the same connection never pass through
	// the demux, so the worker applies the configured bound itself).
	reqDeadline time.Duration

	// verif is the launcher-issued verification handle, held at 0; session
	// registrations prove it to the demux just like the base registration.
	verif handle.Handle

	// debugNoClean disables ep_clean/unmap, reproducing the paper's
	// worst-case "active session" memory experiment (§9.1).
	debugNoClean bool

	// epTTL is the worker-side idle backstop on cached event processes.
	// The demux's opEvict is fire-and-forget under the unreliable-IPC
	// contract (§4): if that one message is dropped, nothing else ever
	// addresses the session port — the port's self-at-0 capability label
	// means not even this worker's base realm can message the event
	// process into exiting. With epTTL set, the worker tracks each
	// session's last handoff and reaps (kernel.EPReap) any event process
	// idle past the bound. 0 disables (sessions then live until a demux
	// evict arrives).
	epTTL time.Duration
	// epMu guards epLast and epSweep: handoffs land on Run's goroutine,
	// the sweep on a timer goroutine.
	epMu    sync.Mutex
	epLast  map[handle.Handle]epIdle
	epSweep *time.Timer
}

// epIdle is one cached session's idle-tracking state, keyed by its
// session port uW (the handle an arriving evict names).
type epIdle struct {
	id   uint32 // event-process id, for EPReap
	last time.Time
}

// newWorker builds the worker process; the launcher registers it with the
// demux (proving the verification handle) before Run is called.
func newWorker(sys *kernel.System, name string, h Handler) *Worker {
	proc := sys.NewProcess("worker-" + name)
	base := proc.Open(nil)
	base.SetLabel(label.Empty(label.L3))
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{
		sys:          sys,
		proc:         proc,
		name:         name,
		handler:      h,
		basePort:     base,
		ctx:          ctx,
		cancel:       cancel,
		keepSessions: true,
	}
	return w
}

// Process exposes the worker's kernel process.
func (w *Worker) Process() *kernel.Process { return w.proc }

// SessionCount reports the worker's live event processes — cached sessions
// plus any active one. The eviction-reclaim tests bound it: a session the
// demux evicts must disappear from here too, or the worker leaks one event
// process per evicted session.
func (w *Worker) SessionCount() int { return w.proc.EPCount() }

// register proves identity to the demux (Figure 5 preamble; §7.1): the
// verification label carries the launcher-issued handle at level 0.
func (w *Worker) register(regPort, verif handle.Handle) error {
	w.verif = verif
	v := label.New(label.L3, label.Entry{H: verif, L: label.L0})
	return w.proc.Port(regPort).Send(encodeRegister(w.name, w.basePort.Handle()), &kernel.SendOpts{
		Verify:     v,
		DecontSend: kernel.Grant(w.basePort.Handle()),
	})
}

// Run is the worker's event loop: one event process per user session. It
// returns when Stop cancels the worker's context.
func (w *Worker) Run() {
	prof := w.sys.Profiler()
	for {
		d, ep, err := w.proc.CheckpointCtx(w.ctx)
		if err != nil {
			return
		}
		stop := prof.Time(stats.CatOKWS)
		w.serve(d, ep)
		stop()
	}
}

// Stop shuts the worker down: context first (ends Run and any in-request
// wait), then kernel state.
func (w *Worker) Stop() {
	w.cancel()
	w.epMu.Lock()
	if w.epSweep != nil {
		w.epSweep.Stop()
		w.epSweep = nil
	}
	w.epMu.Unlock()
	w.proc.Exit()
}

// touchEP records activity on a cached session and lazily arms the idle
// sweep — one parked timer per worker, armed only while any session is
// live, so an idle worker schedules no wakeups at all.
func (w *Worker) touchEP(sess handle.Handle, id uint32) {
	if w.epTTL <= 0 {
		return
	}
	w.epMu.Lock()
	if w.epLast == nil {
		w.epLast = make(map[handle.Handle]epIdle)
	}
	w.epLast[sess] = epIdle{id: id, last: time.Now()}
	if w.epSweep == nil {
		w.epSweep = time.AfterFunc(w.epTTL, w.sweepIdleEPs)
	}
	w.epMu.Unlock()
}

// forgetEP drops a session from idle tracking (evicted, or exited).
func (w *Worker) forgetEP(sess handle.Handle) {
	if w.epTTL <= 0 {
		return
	}
	w.epMu.Lock()
	delete(w.epLast, sess)
	w.epMu.Unlock()
}

// sweepIdleEPs reaps every cached session idle past epTTL, exactly as if
// the demux's evict had arrived. An event process that is ACTIVE when the
// sweep looks (mid-request on Run's goroutine) is skipped — its handoff
// already re-touched it, or the next sweep retries. A sweep that races
// Stop finds epSweep nil and returns at once.
func (w *Worker) sweepIdleEPs() {
	w.epMu.Lock()
	defer w.epMu.Unlock()
	if w.epSweep == nil {
		return
	}
	now := time.Now()
	var expired []handle.Handle
	for sess, st := range w.epLast {
		if now.Sub(st.last) >= w.epTTL {
			expired = append(expired, sess)
		}
	}
	for _, sess := range expired {
		if w.proc.EPReap(w.epLast[sess].id) {
			delete(w.epLast, sess)
		}
	}
	if len(w.epLast) > 0 {
		w.epSweep.Reset(w.epTTL)
	} else {
		w.epSweep = nil
	}
}

// session state persisted in event-process memory.
type sessState struct {
	user string
	uid  string
	uT   handle.Handle
	uG   handle.Handle
	// sess is uW, the port registered with the demux: follow-up
	// connections arrive here and are consumed only via Checkpoint.
	sess handle.Handle
	// reply receives ok-dbproxy replies during a request. It must be
	// distinct from sess: a blocking receive on the reply port must never
	// swallow a concurrent connection handoff.
	reply handle.Handle
}

// serve handles one delivery in the context of event process ep.
func (w *Worker) serve(d *kernel.Delivery, ep *kernel.EventProcess) {
	if parseEvict(d) {
		// The demux (or the worker's own idle sweep) evicted this session
		// from the routing table: nothing will ever be handed to this event
		// process again, so exit it and reclaim its kernel state and private
		// pages (only the demux and the worker itself hold the session
		// port's capability, so nobody else can force this).
		w.forgetEP(d.Port)
		w.proc.EPExit()
		return
	}
	if s, ok := parseStart(d); ok {
		// New session (Figure 5 step 7): the delivery contaminated this
		// fresh event process with uT 3 and granted uC ⋆ + uG ⋆.
		uW := w.proc.Open(nil).Handle()
		reply := w.proc.Open(nil).Handle()
		st := sessState{user: s.User, uid: s.UID, uT: s.UT, uG: s.UG, sess: uW, reply: reply}
		conn := w.proc.Port(s.Conn)
		if !storeSession(ep.Memory(), st) {
			// The metadata would run into the app data. Refuse the session
			// before it registers: nothing will ever route to this event
			// process, so it is reclaimed at once.
			w.refuse(ep, conn)
			w.proc.EPReap(ep.ID())
			return
		}
		if w.keepSessions {
			// Register the session port with the demux shard that owns this
			// user, so future connections come straight to this event
			// process (§7.3) — sent to any other shard the entry would sit
			// where no handoff for the user ever looks. Ephemeral workers
			// skip this: their event processes exit after each request, so
			// routing to uW would dead-end.
			sess := w.sessPorts[shard.Of(s.User, len(w.sessPorts))]
			sess.Send(encodeSession(s.User, w.name, uW), &kernel.SendOpts{
				Verify:     label.New(label.L3, label.Entry{H: w.verif, L: label.L0}),
				DecontSend: kernel.Grant(uW),
			})
			w.touchEP(uW, ep.ID())
		}
		rctx, cancel := w.reqCtx(time.Duration(s.DeadlineMS) * time.Millisecond)
		w.serveConn(rctx, ep, &st, conn, s.Buf, handle.None)
		cancel()
		return
	}
	if c, ok := parseCont(d); ok {
		// Resumed session: restore state from event-process memory.
		conn := w.proc.Port(c.Conn)
		st, ok := loadSession(ep.Memory())
		if !ok {
			w.refuse(ep, conn)
			return
		}
		w.touchEP(st.sess, ep.ID())
		rctx, cancel := w.reqCtx(time.Duration(c.DeadlineMS) * time.Millisecond)
		w.serveConn(rctx, ep, &st, conn, c.Buf, handle.None)
		cancel()
		return
	}
	// Not a handoff: maybe a netd ReadReply waking one of this session's
	// parked keep-alive connections.
	if st, ok := loadSession(ep.Memory()); ok && w.wakeParked(d, ep, &st) {
		return
	}
	// Unknown message: ignore and yield.
	w.proc.Yield()
}

// reqCtx derives the request-scoped context bounded by d (0 = none): on a
// handoff, the deadline the demux stamped into it, so one clock covers the
// handler's database round trips and the reply waits and a request the
// demux has already 504ed cannot pin this worker past it; on a woken
// keep-alive connection, the configured bound. The cancel must run when
// the request ends to release the deadline timer.
func (w *Worker) reqCtx(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return w.ctx, func() {}
	}
	return context.WithTimeout(w.ctx, d)
}

// serveConn serves every complete request in buf (step 8 onwards), then
// parks the connection on whatever is left: the worker serves only bytes
// it already holds, so its single goroutine never blocks waiting for a
// client to speak. A parked connection leaves a netd read pending on an
// event-process-owned port, is recorded at kaAddr, and the event process
// yields. kaPort is the already-open parked port when resuming from a wake
// (handle.None on fresh handoffs).
//
// The responses are unacknowledged writes, and they leave with the op that
// ends the wake — the park's read or the close — as one batch on uC, in
// order: the connection port's per-sender FIFO applies them exactly as
// separate sends would, and netd handles them in the same wake.
func (w *Worker) serveConn(rctx context.Context, ep *kernel.EventProcess, st *sessState, conn *kernel.Port, buf []byte, kaPort handle.Handle) {
	// out holds the responses served so far, with room beside one for the
	// op that ends the wake.
	out := make([]kernel.BatchEntry, 0, 2)
	for {
		req, n, complete, err := httpmsg.ParseRequest(buf)
		switch {
		case err != nil:
		case !complete:
			if w.park(ep, conn, kaPort, buf, out) {
				w.finish(ep)
				return
			}
		default:
			raw, keep := w.serveRequest(rctx, ep, st, req, buf[:n])
			out = append(out, netd.WriteOp(handle.None, raw))
			if keep {
				buf = buf[n:]
				continue
			}
		}
		w.closeConn(ep, conn, kaPort, out...)
		return
	}
}

// serveRequest runs the handler for one parsed request and returns the
// response to write, and whether the connection stays open (the client
// asked for keep-alive, this worker caches sessions, and the handler
// returned).
func (w *Worker) serveRequest(rctx context.Context, ep *kernel.EventProcess, st *sessState, req *httpmsg.Request, reqRaw []byte) (raw []byte, keep bool) {
	c := &Ctx{
		w: w, ep: ep, st: st, ctx: rctx,
		User: st.user, UID: st.uid,
		UT: st.uT, UG: st.uG,
	}
	resp, ok := w.runHandler(c, req)
	if resp == nil {
		resp = &httpmsg.Response{Status: 500}
	}
	keep = ok && w.keepSessions && req.KeepAlive()
	headers := resp.Headers
	if keep {
		// Echo the keep-alive (HTTP/1.0 defaults to close); responses are
		// always content-length framed, so the client can find the boundary.
		headers = make(map[string]string, len(resp.Headers)+1)
		for k, v := range resp.Headers {
			headers[k] = v
		}
		headers["connection"] = "keep-alive"
	}
	raw = httpmsg.FormatResponse(resp.Status, headers, resp.Body)
	// Scratch traffic, mirroring how "programs scatter users' data across
	// the stack in addition to various places on the heap" (§6.2): the
	// response buffer, a copy of the request ("stack" temporaries), and a
	// per-request counter page ("modified global variables"). ep_clean
	// reverts all of it for cached sessions; the NoClean worker retains it,
	// reproducing the paper's active-session footprint.
	ep.Memory().WriteAt(ScratchAddr, raw[:min(len(raw), ScratchSize)])
	// The request copy uses the wire bytes already in hand; re-serializing
	// the parsed form would only add an allocation chain per request.
	ep.Memory().WriteAt(ScratchAddr+4*mem.PageSize, reqRaw[:min(len(reqRaw), 2*mem.PageSize)])
	var ctr [8]byte
	ep.Memory().ReadAt(ScratchAddr+8*mem.PageSize, ctr[:])
	ctr[7]++
	ep.Memory().WriteAt(ScratchAddr+8*mem.PageSize, ctr[:])
	return raw, keep
}

// runHandler calls the service's handler, reporting ok false when it
// panicked. The handler is the untrusted code of the threat model, so its
// panic ends one request, not the worker: the user gets a 500, the
// connection closes, and the event process — the user's cached session —
// yields as after any request.
func (w *Worker) runHandler(c *Ctx, req *httpmsg.Request) (resp *httpmsg.Response, ok bool) {
	defer func() {
		if recover() != nil {
			resp, ok = nil, false
		}
	}()
	return w.handler(c, req), true
}

// closeConn ends a connection: the pending response writes and the close go
// to netd as one unacknowledged batch (sent before the privilege drop, as
// sends are checked at send time), uC is shed so a dead request can neither
// pin the socket nor grow the labels, the parked port is retired if one was
// held, and the event process yields or exits.
func (w *Worker) closeConn(ep *kernel.EventProcess, conn *kernel.Port, kaPort handle.Handle, writes ...kernel.BatchEntry) {
	conn.SendBatch(append(writes, netd.ControlOp(handle.None, netd.CtlClose)))
	w.proc.DropPrivilege(conn.Handle(), label.L1)
	if kaPort != handle.None {
		w.proc.Dissociate(kaPort)
		w.proc.DropPrivilege(kaPort, label.L1)
	}
	w.finish(ep)
}

// refuse answers a handoff this event process cannot serve with 500, then
// closes the connection as closeConn does.
func (w *Worker) refuse(ep *kernel.EventProcess, conn *kernel.Port) {
	w.closeConn(ep, conn, handle.None, netd.WriteOp(handle.None, httpmsg.FormatResponse(500, nil, nil)))
}

// park records an idle keep-alive connection in the session's kaAddr
// region and leaves a netd read pending on an event-process-owned port:
// when the client's next request arrives, the ReadReply is delivered to
// that port, routed to this event process by the checkpoint scan, and
// wakeParked resumes the connection. The read leaves in one batch behind
// writes, the responses served in this wake. leftover carries any partial
// request bytes already received. Returns false, having sent nothing, when
// the park table or the leftover bound is exceeded: the caller closes
// instead. kaPort, when valid, is reused from the previous park of this
// connection.
func (w *Worker) park(ep *kernel.EventProcess, conn *kernel.Port, kaPort handle.Handle, leftover []byte, writes []kernel.BatchEntry) bool {
	entries := kaLoad(ep.Memory())
	if len(entries) >= maxParkedConns || len(leftover) > maxKALeftover {
		return false
	}
	if kaPort == handle.None {
		kaPort = w.proc.Open(nil).Handle()
	}
	if err := conn.SendBatch(append(writes, netd.ReadOp(kaPort, 4096))); err != nil {
		return false
	}
	kaStore(ep.Memory(), append(entries, kaEntry{port: kaPort, conn: conn.Handle(), leftover: leftover}))
	return true
}

// wakeParked resumes a parked keep-alive connection when its pending
// ReadReply arrives (or tears it down on EOF — the client closed, or netd
// evicted the connection). Reports whether d belonged to a parked entry.
func (w *Worker) wakeParked(d *kernel.Delivery, ep *kernel.EventProcess, st *sessState) bool {
	entries := kaLoad(ep.Memory())
	idx := -1
	for i, e := range entries {
		if e.port == d.Port {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	e := entries[idx]
	kaStore(ep.Memory(), append(entries[:idx], entries[idx+1:]...))
	rr, ok := netd.ParseReadReply(d)
	conn := w.proc.Port(e.conn)
	if !ok || rr.EOF || len(rr.Data) == 0 {
		// Client closed (or the reply is garbage): retire the connection.
		w.closeConn(ep, conn, e.port)
		return true
	}
	w.touchEP(st.sess, ep.ID())
	rctx, cancel := w.reqCtx(w.reqDeadline)
	w.serveConn(rctx, ep, st, conn, append(e.leftover, rr.Data...), e.port)
	cancel()
	return true
}

// kaEntry is one parked keep-alive connection: the event-process-owned
// port its pending netd read answers to, the connection capability, and
// any partial request bytes received before parking.
type kaEntry struct {
	port     handle.Handle
	conn     handle.Handle
	leftover []byte
}

// finish ends request processing: clean the scratch region and yield
// (cached session) or exit the event process entirely.
func (w *Worker) finish(ep *kernel.EventProcess) {
	if w.debugNoClean {
		w.proc.Yield()
		return
	}
	if !w.keepSessions {
		w.proc.EPExit()
		return
	}
	w.proc.EPClean(ScratchAddr, ScratchSize)
	w.proc.Yield()
}

// --- records in event-process memory ---

// Region limits: each record, length included, ends before the next
// region. kaLimit fits a full park table of maximal leftovers.
const (
	sessionLimit = int(sessionDataAddr - SessionAddr)
	dataLimit    = int(ScratchAddr - sessionDataAddr)
	kaLimit      = 4 + 1 + 2 + maxParkedConns*(8+8+4+maxKALeftover)
)

// storeRecord writes msg, a wire message whose op byte tags the record, at
// addr behind its u32 length. A record longer than limit bytes, length
// included, is refused and nothing is written.
func storeRecord(m *mem.View, addr mem.Addr, limit int, msg []byte) bool {
	if 4+len(msg) > limit {
		return false
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(msg)))
	m.WriteAt(addr, n[:])
	m.WriteAt(addr+4, msg)
	return true
}

// loadRecord reads back the record at addr, nil when the region holds
// none: a zero length, one past limit, or a message not tagged tag. The
// caller decodes the fields and checks Err once at the end, so a truncated
// record reads as absent too.
func loadRecord(m *mem.View, addr mem.Addr, limit int, tag byte) *wire.Reader {
	var n [4]byte
	m.ReadAt(addr, n[:])
	size := int(binary.BigEndian.Uint32(n[:]))
	if size == 0 || 4+size > limit {
		return nil
	}
	msg := make([]byte, size)
	m.ReadAt(addr+4, msg)
	if op, r := wire.NewReader(msg); op == tag {
		return r
	}
	return nil
}

// storeSession records the session metadata at SessionAddr, reporting
// false when it would reach sessionDataAddr.
func storeSession(m *mem.View, st sessState) bool {
	return storeRecord(m, SessionAddr, sessionLimit, wire.NewWriter(recSession).
		String(st.user).String(st.uid).
		Handle(st.uT).Handle(st.uG).Handle(st.sess).Handle(st.reply).Done())
}

func loadSession(m *mem.View) (sessState, bool) {
	r := loadRecord(m, SessionAddr, sessionLimit, recSession)
	if r == nil {
		return sessState{}, false
	}
	st := sessState{user: r.String(), uid: r.String(),
		uT: r.Handle(), uG: r.Handle(), sess: r.Handle(), reply: r.Handle()}
	return st, !r.Err()
}

// kaStore persists the parked set at kaAddr. Like the session region, the
// bytes live in the event process's private memory — outside the scratch
// region ep_clean reverts.
func kaStore(m *mem.View, entries []kaEntry) {
	wr := wire.NewWriter(recParked).U16(uint16(len(entries)))
	for _, e := range entries {
		wr.Handle(e.port).Handle(e.conn).Bytes(e.leftover)
	}
	storeRecord(m, kaAddr, kaLimit, wr.Done())
}

// kaLoad reads the parked set back; a missing or corrupt record reads as
// empty.
func kaLoad(m *mem.View) []kaEntry {
	r := loadRecord(m, kaAddr, kaLimit, recParked)
	if r == nil {
		return nil
	}
	n := int(r.U16())
	if n > maxParkedConns {
		return nil
	}
	entries := make([]kaEntry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, kaEntry{port: r.Handle(), conn: r.Handle(), leftover: r.Bytes()})
	}
	if r.Err() {
		return nil
	}
	return entries
}

// Ctx is the per-request context handed to worker Handlers: the
// authenticated user, session-state accessors backed by event-process
// memory, and labeled database access.
type Ctx struct {
	w  *Worker
	ep *kernel.EventProcess
	st *sessState

	// ctx is the request-scoped context (deadline inherited from the
	// demux handoff); Query/Declassify waits honor it.
	ctx context.Context

	// User is the authorization string; UID the database user id.
	User string
	UID  string
	// UT and UG are the user's taint and grant handles. An ordinary worker
	// holds UT at 3 (tainted); a declassifier holds it at ⋆.
	UT handle.Handle
	UG handle.Handle
}

// sessionDataAddr places user data on the same page as the (small) session
// metadata, so a cached session with ≤ ~3 KB of state costs exactly one
// private page — the quantity behind Figure 6's 1.5-pages-per-session.
const sessionDataAddr = SessionAddr + 512

// SessionStore persists app data in the event process's private memory; it
// survives across connections until the session exits. Data that would
// reach the scratch region (ScratchAddr) is not stored.
func (c *Ctx) SessionStore(b []byte) {
	storeRecord(c.ep.Memory(), sessionDataAddr, dataLimit, wire.NewWriter(recData).Bytes(b).Done())
}

// SessionLoad retrieves data stored by SessionStore (nil if none).
func (c *Ctx) SessionLoad() []byte {
	if r := loadRecord(c.ep.Memory(), sessionDataAddr, dataLimit, recData); r != nil {
		return r.Bytes() // nil when truncated
	}
	return nil
}

// Scratch writes into the per-request temporary region (cleaned on yield);
// used by handlers that want realistic memory behaviour.
func (c *Ctx) Scratch(off mem.Addr, b []byte) {
	if off+mem.Addr(len(b)) > ScratchSize {
		return
	}
	c.ep.Memory().WriteAt(ScratchAddr+off, b)
}

// RawProcess exposes the worker's kernel process. It models a fully
// compromised worker: arbitrary system calls with whatever labels the
// current event process carries. The isolation tests use it to verify that
// even raw kernel access cannot leak a user's data (§7.8).
func (c *Ctx) RawProcess() *kernel.Process { return c.w.proc }

// Query runs a labeled database query through ok-dbproxy, returning result
// rows. The kernel guarantees only rows the user may see arrive (§7.5).
func (c *Ctx) Query(sql string, args ...string) ([][]string, error) {
	return c.dbExec(sql, args, false)
}

// Declassify runs a declassification write; it succeeds only in
// declassifier workers, which hold UT at ⋆ (§7.6).
func (c *Ctx) Declassify(sql string, args ...string) ([][]string, error) {
	return c.dbExec(sql, args, true)
}

func (c *Ctx) dbExec(sql string, args []string, declassify bool) ([][]string, error) {
	var v *label.Label
	var send func(*kernel.Port, string, string, []string, handle.Handle, *label.Label) error
	if declassify {
		v = dbproxy.VerifyDeclassify(c.UT)
		send = dbproxy.Declassify
	} else {
		v = dbproxy.VerifyFor(c.UT, c.UG)
		send = dbproxy.Query
	}
	proxy := c.w.proxyPorts[dbproxy.ShardFor(c.User, len(c.w.proxyPorts))]
	if err := send(proxy, c.User, sql, args, c.st.reply, v); err != nil {
		return nil, err
	}
	var rows [][]string
	for {
		d, err := c.w.proc.RecvCtx(c.ctx, c.st.reply)
		if err != nil {
			return nil, err
		}
		// Every parser copies its fields out, so the pooled payload is
		// recycled per delivery — a query streaming N rows used to leak N
		// buffers to the garbage collector.
		row, isRow := dbproxy.ParseRow(d)
		_, isDone := dbproxy.ParseDone(d)
		msg, isErr := dbproxy.ParseError(d)
		d.Release()
		switch {
		case isRow:
			rows = append(rows, row)
		case isDone:
			return rows, nil
		case isErr:
			return nil, fmt.Errorf("okws: db: %s", msg)
		}
		// Stray netd replies can interleave; skip them.
	}
}
