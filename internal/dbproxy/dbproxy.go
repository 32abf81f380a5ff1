// Package dbproxy implements ok-dbproxy (paper §7.5–7.6): the trusted,
// privileged process interposed on all OKWS database access. It converts
// Asbestos labels and security policies to operations on the plain
// relational engine:
//
//   - Every table accessed by workers gets a private "user ID" column
//     (UserCol) that workers can neither read nor name.
//   - Writes require a verification label bounded by {uT 3, uG 0, 2} for the
//     claimed user's handles: the sender speaks for u and is contaminated by
//     nothing beyond u's own taint.
//   - Reads return each row the verified caller u may receive as a separate
//     message: u's rows contaminated with uT at 3, declassified rows (user
//     ID 0) untainted; other users' rows are not sent. The kernel's receive
//     check is still the boundary — every row it gets is labeled, so a
//     filter bug could hide rows but never reveal them. An untainted done
//     carrying 0 ends the stream, so a worker cannot count rows it may not
//     see.
//   - Declassifiers prove uT ⋆ via the verification label to write rows
//     with user ID 0.
//
// idd pushes (user, uT, uG) bindings to the proxy as it creates them,
// granting the proxy uT ⋆ per user; the proxy's send and receive labels
// therefore grow linearly with the user population, one of the label costs
// Figure 9 measures. (The paper's proxy pulls mappings from idd on demand;
// pushing avoids a synchronous call cycle between two single-threaded
// servers and is otherwise equivalent.)
//
// The proxy's replicas run on the shared internal/evloop runtime (capped
// burst draining, ctx-driven stop — see the evloop package doc for its
// ownership rules); each replica registers
// just its worker- and admin-port handlers.
package dbproxy

import (
	"fmt"
	"strings"

	"asbestos/internal/db"
	"asbestos/internal/evloop"
	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/shard"
	"asbestos/internal/stats"
	"asbestos/internal/wire"
)

// UserCol is the private per-row owner column.
const UserCol = "_uid"

// DeclassifiedUID marks rows readable by anyone (paper: "flags a data row
// as declassified by setting its user ID entry to zero").
const DeclassifiedUID = "0"

// Worker-facing ops.
const (
	OpQuery      = 1 // user, sql, args..., reply; V proves identity
	OpDeclassify = 2 // user, sql, args..., reply; V proves uT ⋆
)

// Reply ops.
const (
	OpRow    = 3 // one result row (tainted with the owner's uT 3)
	OpDone   = 4 // affected count; terminates a result stream
	OpError  = 5 // message
	OpAdmRes = 7 // admin result set in one message
)

// Admin/idd-facing ops.
const (
	OpAdminExec = 6 // sql, args..., reply: unrestricted access
	OpMapping   = 8 // user, uid, uT, uG: binding push from idd
)

// EnvWorkerPort and EnvAdminPort are the environment names under which the
// proxy publishes its ports.
const (
	EnvWorkerPort = "ok-dbproxy"
	EnvAdminPort  = "ok-dbproxy-admin"
)

// Mapping is one authenticated user binding.
type Mapping struct {
	UID string
	UT  handle.Handle
	UG  handle.Handle
}

// Proxy is ok-dbproxy: one or more replicated event loops ("shards") on
// the shared internal/evloop runtime, over a shared database. Each shard
// is its own kernel process with its own worker and admin ports; clients
// dispatch queries by user hash (ShardFor), so one user's queries always
// land on the same replica, and idd broadcasts every (user, uT, uG)
// binding to all shards — single-loop callers send every user's queries to
// the first shard's published port.
type Proxy struct {
	sys *kernel.System
	db  *db.DB
	g   *evloop.Group

	shards []*proxyShard
}

// proxyShard is one replica: its own process, ports and mapping tables,
// touched only by its own loop (no locking). The loop skeleton lives in
// lp; with no fallback handler registered, the loop's mailbox is filtered
// to exactly the worker and admin ports.
type proxyShard struct {
	p  *Proxy
	lp *evloop.Shard

	proc *kernel.Process // lp's process
	out  *kernel.Batcher // lp's batcher, flushed by the loop after each burst

	workerPort *kernel.Port
	adminPort  *kernel.Port

	byUser map[string]Mapping
}

// New boots a single-loop proxy over an existing database; NewSharded
// replicates the loop. The admin ports' labels are locked down by
// capability; GrantAdmin hands access to idd.
func New(sys *kernel.System, database *db.DB) *Proxy {
	return NewSharded(sys, database, 1)
}

// NewSharded boots the proxy with n replicated event loops. The first
// shard's ports are published under EnvWorkerPort/EnvAdminPort; WorkerPorts
// exposes the full dispatch set.
func NewSharded(sys *kernel.System, database *db.DB, n int) *Proxy {
	g := evloop.New(sys, evloop.Config{
		Name:     "ok-dbproxy",
		Shards:   n,
		Category: stats.CatOKDB,
	})
	p := &Proxy{sys: sys, db: database, g: g}
	for i := 0; i < g.Shards(); i++ {
		lp := g.Shard(i)
		proc := lp.Proc()
		worker := proc.Open(nil)
		if err := worker.SetLabel(label.Empty(label.L3)); err != nil {
			panic(err)
		}
		// The admin port is private by capability: {admin 0, 3}. The default
		// must stay 3 (not 2) because idd's mapping pushes raise the shard's
		// receive label with DR = {uT 3}, and requirement 4 demands DR ⊑ pR.
		admin := proc.Open(nil)
		s := &proxyShard{
			p:          p,
			lp:         lp,
			proc:       proc,
			out:        lp.Out(),
			workerPort: worker,
			adminPort:  admin,
			byUser:     make(map[string]Mapping),
		}
		lp.Handle(worker, s.handleWorker)
		lp.Handle(admin, s.handleAdmin)
		p.shards = append(p.shards, s)
	}
	sys.SetEnv(EnvWorkerPort, p.shards[0].workerPort.Handle())
	sys.SetEnv(EnvAdminPort, p.shards[0].adminPort.Handle())
	return p
}

// Process returns the first shard's kernel process (label inspection in
// tests and the Figure 9 experiment).
func (p *Proxy) Process() *kernel.Process { return p.shards[0].proc }

// ShardCount reports the number of replicated loops.
func (p *Proxy) ShardCount() int { return len(p.shards) }

// WorkerPort returns the first shard's query port (single-loop callers).
func (p *Proxy) WorkerPort() handle.Handle { return p.shards[0].workerPort.Handle() }

// WorkerPorts returns every shard's query port, indexed by shard; clients
// route user u's queries to WorkerPorts()[ShardFor(u, n)].
func (p *Proxy) WorkerPorts() []handle.Handle {
	out := make([]handle.Handle, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.workerPort.Handle()
	}
	return out
}

// AdminPort returns the first shard's restricted admin port.
func (p *Proxy) AdminPort() handle.Handle { return p.shards[0].adminPort.Handle() }

// AdminPorts returns every shard's admin port, indexed by shard.
func (p *Proxy) AdminPorts() []handle.Handle {
	out := make([]handle.Handle, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.adminPort.Handle()
	}
	return out
}

// ShardFor returns the shard index owning a user's queries among n shards.
func ShardFor(user string, n int) int { return shard.Of(user, n) }

// BootExec runs a statement directly against the proxy's database. It is a
// boot-time-only escape hatch: idd creates its user table with it during
// construction, BEFORE any event loop runs — an admin-port round trip at
// that point would block forever waiting on a loop that has not started.
// Callers must not use it once Run has been called (the loops assume the
// database is theirs).
func (p *Proxy) BootExec(sql string, args ...string) error {
	_, err := p.db.Exec(sql, args...)
	return err
}

// GrantAdmin gives a process the capability to send to every shard's admin
// port (the launcher calls this for idd). dst must be an open port of the
// grantee; one grant message arrives per shard.
func (p *Proxy) GrantAdmin(dst handle.Handle) error {
	for _, s := range p.shards {
		err := s.proc.Port(dst).Send(wire.NewWriter(OpAdmRes).Done(),
			&kernel.SendOpts{DecontSend: kernel.Grant(s.adminPort.Handle())})
		if err != nil {
			return err
		}
	}
	return nil
}

// Run runs every shard's event loop on the evloop runtime; it returns when
// Stop cancels the group context.
func (p *Proxy) Run() { p.g.Run() }

// Stop shuts the proxy down: context first (ends Run), then kernel state.
func (p *Proxy) Stop() { p.g.Stop() }

func (s *proxyShard) handleAdmin(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	switch op {
	case OpAdminExec:
		sql := r.String()
		n := int(r.U32())
		args := make([]string, n)
		for i := range args {
			args[i] = r.String()
		}
		reply := r.Handle()
		if r.Err() {
			return
		}
		res, err := s.p.db.Exec(sql, args...)
		if err != nil {
			s.send(reply, errMsg(err), nil)
			return
		}
		w := wire.NewWriter(OpAdmRes).U32(uint32(len(res.Cols))).U32(uint32(len(res.Rows)))
		for _, c := range res.Cols {
			w.String(c)
		}
		for _, row := range res.Rows {
			for _, v := range row {
				w.String(v)
			}
		}
		w.U32(uint32(res.Affected))
		s.send(reply, w.Done(), nil)
		// The reply above is still buffered in the shard Batcher; shed the
		// capability only after the loop's flush actually enqueues it.
		s.out.DropAfter(reply)
	case OpMapping:
		user := r.String()
		m := Mapping{UID: r.String(), UT: r.Handle(), UG: r.Handle()}
		if r.Err() {
			return
		}
		s.byUser[user] = m
	}
}

func (s *proxyShard) handleWorker(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	if op != OpQuery && op != OpDeclassify {
		return
	}
	user := r.String()
	sql := r.String()
	n := int(r.U32())
	args := make([]string, n)
	for i := range args {
		args[i] = r.String()
	}
	reply := r.Handle()
	if r.Err() {
		return
	}
	// The reply capability lives for this request only, but every reply now
	// rides the shard Batcher: the privilege must survive until the loop's
	// post-burst Flush, so the drop is scheduled there rather than taken
	// inline on return.
	defer s.out.DropAfter(reply)

	m, ok := s.byUser[user]
	if !ok {
		s.send(reply, errMsg(fmt.Errorf("dbproxy: unknown user %q", user)), nil)
		return
	}

	// Identity and purity check (paper §7.5): the verify label conveys that
	// the sender speaks for u (uG at 0) and has not been contaminated by
	// any data other than u's own (nothing else above the default receive
	// level).
	if op == OpDeclassify {
		if d.V.Get(m.UT) != label.Star {
			s.reply(m, reply, errMsg(fmt.Errorf("dbproxy: declassify requires uT ⋆")))
			return
		}
	} else {
		bound := label.New(label.L2,
			label.Entry{H: m.UT, L: label.L3},
			label.Entry{H: m.UG, L: label.L0})
		if !d.V.Leq(bound) {
			s.reply(m, reply, errMsg(fmt.Errorf("dbproxy: verify label rejected")))
			return
		}
	}

	stmt, err := db.Parse(sql)
	if err != nil {
		s.reply(m, reply, errMsg(err))
		return
	}
	if namesUserCol(stmt) {
		s.reply(m, reply, errMsg(fmt.Errorf("dbproxy: column %s is reserved", UserCol)))
		return
	}

	uid := m.UID
	if op == OpDeclassify {
		uid = DeclassifiedUID
	}

	switch st := stmt.(type) {
	case *db.CreateStmt:
		// Every worker table silently gets the user-ID column.
		st.Cols = append(st.Cols, UserCol)
		s.execSimple(m, st, args, reply)
	case *db.InsertStmt:
		st.Cols = append(st.Cols, UserCol)
		st.Vals = append(st.Vals, db.Lit(uid))
		s.execSimple(m, st, args, reply)
	case *db.UpdateStmt:
		if op == OpDeclassify {
			// Declassification flags u's rows public: set _uid = 0 on rows
			// the declassifier's user owns.
			st.Where = append(st.Where, db.Cond{Col: UserCol, Val: db.Lit(m.UID)})
			st.Set = append(st.Set, db.Assign{Col: UserCol, Val: db.Lit(DeclassifiedUID)})
		} else {
			st.Where = append(st.Where, db.Cond{Col: UserCol, Val: db.Lit(uid)})
		}
		s.execSimple(m, st, args, reply)
	case *db.DeleteStmt:
		st.Where = append(st.Where, db.Cond{Col: UserCol, Val: db.Lit(uid)})
		s.execSimple(m, st, args, reply)
	case *db.SelectStmt:
		s.execSelect(m, st, args, reply)
	default:
		s.reply(m, reply, errMsg(fmt.Errorf("dbproxy: unsupported statement")))
	}
}

// execSimple runs a write statement and replies with a tainted done.
func (s *proxyShard) execSimple(m Mapping, stmt db.Stmt, args []string, reply handle.Handle) {
	res, err := s.p.db.ExecStmt(stmt, args...)
	if err != nil {
		s.reply(m, reply, errMsg(err))
		return
	}
	s.reply(m, reply, wire.NewWriter(OpDone).U32(uint32(res.Affected)).Done())
}

// execSelect streams back the rows m's worker can receive — those owned by
// the verified caller m.UID or declassified — each as a separate message
// (paper §7.5: "Each row is returned as a separate message with a separate
// taint"): u's rows tainted with uT 3, declassified rows untainted. Foreign
// rows are never sent: the kernel would drop every one of them at the
// worker's receive check anyway. That check stays the security boundary —
// the filter runs only after handleWorker's verify check has shown the
// sender speaks for m, and a wrong filter could only hide rows, since
// whatever it lets through is still tainted and still checked per message.
// The untainted done that ends the stream carries 0, not a row count: the
// count would tell a worker how many rows exist whose taint it cannot see.
// The whole stream rides the shard Batcher and leaves as ONE SendBatch per
// destination at the loop's post-burst Flush.
func (s *proxyShard) execSelect(m Mapping, sel *db.SelectStmt, args []string, reply handle.Handle) {
	// Resolve the output columns, then select them plus the hidden owner.
	outCols := sel.Cols
	if outCols == nil {
		all, err := s.p.db.Columns(sel.Table)
		if err != nil {
			s.reply(m, reply, errMsg(err))
			return
		}
		for _, c := range all {
			if c != UserCol {
				outCols = append(outCols, c)
			}
		}
	}
	internal := &db.SelectStmt{
		Table: sel.Table,
		Cols:  append(append([]string(nil), outCols...), UserCol),
		Where: sel.Where,
	}
	res, err := s.p.db.ExecStmt(internal, args...)
	if err != nil {
		s.reply(m, reply, errMsg(err))
		return
	}
	// One *SendOpts shared by all of u's rows, so the flush prepares the
	// taint label once per select rather than once per row.
	var tainted *kernel.SendOpts
	for _, row := range res.Rows {
		owner := row[len(row)-1]
		if owner != m.UID && owner != DeclassifiedUID {
			continue
		}
		vals := row[:len(row)-1]
		w := wire.NewWriter(OpRow).U32(uint32(len(vals)))
		for _, v := range vals {
			w.String(v)
		}
		var opts *kernel.SendOpts
		if owner != DeclassifiedUID {
			if tainted == nil {
				tainted = &kernel.SendOpts{Contaminate: kernel.Taint(label.L3, m.UT)}
			}
			opts = tainted
		}
		s.out.Add(reply, w.Done(), opts)
	}
	s.out.Add(reply, wire.NewWriter(OpDone).U32(0).Done(), nil)
}

// reply sends a worker-facing control message tainted with the user's
// handle (it concerns u's data).
func (s *proxyShard) reply(m Mapping, to handle.Handle, msg []byte) {
	s.send(to, msg, &kernel.SendOpts{Contaminate: kernel.Taint(label.L3, m.UT)})
}

// send buffers one reply in the shard Batcher; the loop flushes after the
// burst, so replies to wire-carried handles still leave in FIFO order but
// cost one queue operation per destination per burst.
func (s *proxyShard) send(to handle.Handle, msg []byte, opts *kernel.SendOpts) {
	s.out.Add(to, msg, opts)
}

func errMsg(err error) []byte {
	return wire.NewWriter(OpError).String(err.Error()).Done()
}

// namesUserCol reports whether a worker statement references the private
// column anywhere.
func namesUserCol(stmt db.Stmt) bool {
	has := func(cols []string) bool {
		for _, c := range cols {
			if strings.EqualFold(c, UserCol) {
				return true
			}
		}
		return false
	}
	hasCond := func(w []db.Cond) bool {
		for _, c := range w {
			if strings.EqualFold(c.Col, UserCol) {
				return true
			}
		}
		return false
	}
	switch s := stmt.(type) {
	case *db.CreateStmt:
		return has(s.Cols)
	case *db.InsertStmt:
		return has(s.Cols)
	case *db.SelectStmt:
		return has(s.Cols) || hasCond(s.Where)
	case *db.UpdateStmt:
		for _, a := range s.Set {
			if strings.EqualFold(a.Col, UserCol) {
				return true
			}
		}
		return hasCond(s.Where)
	case *db.DeleteStmt:
		return hasCond(s.Where)
	}
	return false
}

// --- client helpers ---

// Query sends a worker query through the caller's endpoint to the proxy's
// worker port; the caller must pass its verification label (VerifyFor
// builds the standard one).
func Query(proxyPort *kernel.Port, user, sql string, args []string,
	reply handle.Handle, v *label.Label) error {
	w := wire.NewWriter(OpQuery).String(user).String(sql).U32(uint32(len(args)))
	for _, a := range args {
		w.String(a)
	}
	w.Handle(reply)
	return proxyPort.Send(w.Done(), &kernel.SendOpts{
		DecontSend: kernel.Grant(reply),
		Verify:     v,
	})
}

// Declassify sends a declassification write; v must prove uT ⋆.
func Declassify(proxyPort *kernel.Port, user, sql string, args []string,
	reply handle.Handle, v *label.Label) error {
	w := wire.NewWriter(OpDeclassify).String(user).String(sql).U32(uint32(len(args)))
	for _, a := range args {
		w.String(a)
	}
	w.Handle(reply)
	return proxyPort.Send(w.Done(), &kernel.SendOpts{
		DecontSend: kernel.Grant(reply),
		Verify:     v,
	})
}

// VerifyFor builds the standard worker verification label
// {uT 3, uG 0, 2} (paper §7.5).
func VerifyFor(uT, uG handle.Handle) *label.Label {
	return label.New(label.L2,
		label.Entry{H: uT, L: label.L3},
		label.Entry{H: uG, L: label.L0})
}

// VerifyDeclassify builds the declassifier's proof {uT ⋆, 2}.
func VerifyDeclassify(uT handle.Handle) *label.Label {
	return label.New(label.L2, label.Entry{H: uT, L: label.Star})
}

// PushMapping is used by idd to install a user binding, granting the proxy
// uT ⋆/uG ⋆ and raising its receive label for uT (the sender must hold both
// handles at ⋆).
func PushMapping(adminPort *kernel.Port, user string, m Mapping) error {
	w := wire.NewWriter(OpMapping).String(user).String(m.UID).Handle(m.UT).Handle(m.UG)
	return adminPort.Send(w.Done(), &kernel.SendOpts{
		DecontSend: kernel.Grant(m.UT, m.UG),
		DecontRecv: kernel.AllowRecv(label.L3, m.UT),
	})
}

// AdminExec runs an unrestricted statement (idd's password lookups).
func AdminExec(adminPort *kernel.Port, sql string, args []string, reply handle.Handle) error {
	w := wire.NewWriter(OpAdminExec).String(sql).U32(uint32(len(args)))
	for _, a := range args {
		w.String(a)
	}
	w.Handle(reply)
	return adminPort.Send(w.Done(), &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
}

// AdminResult is a parsed OpAdmRes.
type AdminResult struct {
	Cols     []string
	Rows     [][]string
	Affected int
}

// ParseAdminResult decodes an admin result.
func ParseAdminResult(d *kernel.Delivery) (AdminResult, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpAdmRes {
		return AdminResult{}, false
	}
	nc := int(r.U32())
	nr := int(r.U32())
	if r.Err() || nc > 1024 || nr > 1<<20 {
		return AdminResult{}, false
	}
	res := AdminResult{}
	for i := 0; i < nc; i++ {
		res.Cols = append(res.Cols, r.String())
	}
	for i := 0; i < nr; i++ {
		row := make([]string, nc)
		for j := range row {
			row[j] = r.String()
		}
		res.Rows = append(res.Rows, row)
	}
	res.Affected = int(r.U32())
	if r.Err() {
		return AdminResult{}, false
	}
	return res, true
}

// ParseRow decodes an OpRow delivery.
func ParseRow(d *kernel.Delivery) ([]string, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpRow {
		return nil, false
	}
	n := int(r.U32())
	if r.Err() || n > 1024 {
		return nil, false
	}
	row := make([]string, n)
	for i := range row {
		row[i] = r.String()
	}
	if r.Err() {
		return nil, false
	}
	return row, true
}

// ParseDone decodes an OpDone delivery, returning the affected count. Only
// writes report a count (their done is tainted like the rest of the reply);
// a select's untainted done always carries 0.
func ParseDone(d *kernel.Delivery) (int, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpDone {
		return 0, false
	}
	n := int(r.U32())
	if r.Err() {
		return 0, false
	}
	return n, true
}

// ParseError decodes an OpError delivery.
func ParseError(d *kernel.Delivery) (string, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpError {
		return "", false
	}
	msg := r.String()
	if r.Err() {
		return "", false
	}
	return msg, true
}
