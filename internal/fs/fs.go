// Package fs implements the labeled multi-user file server of paper
// §5.2–§5.4: the worked example that motivates Asbestos's privacy,
// discretionary-integrity and mandatory-integrity mechanisms. It is also a
// realistic substrate — OKWS-style applications use it for configuration
// and static content.
//
// Policy, exactly as the paper develops it:
//
//   - Every file has an owner. READ replies carry the owner's taint handle
//     uT at 3 (contamination label), so readers become tainted and the
//     kernel transitively confines the data.
//   - WRITE requires a verification label proving the sender speaks for the
//     owner: V(uG) ≤ 0. Without mandatory integrity, a process holding
//     uG 0 may relay anything (discretionary); because 0 is below the
//     default send level, the privilege evaporates the moment the process
//     receives from a non-speaker (mandatory, §5.4).
//   - System files require V(sysH) ≤ 1; processes contaminated by the
//     network (send label sysH 2) transitively fail that check.
//
// The file server is trusted: it holds every user's taint handle at ⋆ and a
// receive label cleared for all users, so it can serve everyone without
// accumulating taint, and declassify per-file on the way out.
package fs

import (
	"context"
	"fmt"
	"sort"

	"asbestos/internal/evloop"
	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/stats"
	"asbestos/internal/wire"
)

// Ops.
const (
	OpRead    = 60 // path, reply
	OpWrite   = 61 // path, data, reply; V proves ownership
	OpCreate  = 62 // path, owner user, reply; V proves ownership
	OpList    = 63 // reply
	OpReadR   = 64 // ok byte, data (contaminated with owner taint)
	OpWriteR  = 65 // ok byte
	OpListR   = 66 // paths joined by \n (untainted: names are public here)
	OpAddUser = 67 // user, reply
	OpUserR   = 68 // ok, uT, uG (granted at ⋆)
)

// EnvName is the environment key for the file server port.
const EnvName = "fsd"

// file is one stored file.
type file struct {
	data   []byte
	owner  string // "" = system file
	system bool
}

// user is a registered principal with its compartments.
type user struct {
	uT handle.Handle
	uG handle.Handle
}

// Server is the labeled file server: a single-loop dispatcher on the
// shared internal/evloop runtime.
type Server struct {
	sys  *kernel.System
	g    *evloop.Group
	proc *kernel.Process
	port *kernel.Port

	files map[string]*file
	users map[string]user
	// sysH is the system-integrity compartment (§5.4): writes to system
	// files require V(sysH) ≤ 1.
	sysH handle.Handle
}

// New boots a file server and publishes its port.
func New(sys *kernel.System) *Server {
	g := evloop.New(sys, evloop.Config{
		Name: "fsd", Shards: 1, Category: stats.CatOther,
	})
	lp := g.Shard(0)
	proc := lp.Proc()
	port := proc.Open(nil)
	port.SetLabel(label.Empty(label.L3))
	s := &Server{
		sys:   sys,
		g:     g,
		proc:  proc,
		port:  port,
		files: make(map[string]*file),
		users: make(map[string]user),
		sysH:  proc.NewHandle(),
	}
	lp.Handle(port, s.dispatch)
	sys.SetEnv(EnvName, port.Handle())
	return s
}

// Port returns the request port.
func (s *Server) Port() handle.Handle { return s.port.Handle() }

// Process exposes the kernel process.
func (s *Server) Process() *kernel.Process { return s.proc }

// SystemHandle returns the integrity compartment; the boot sequence marks
// the network daemon with it at level 2 (§5.4).
func (s *Server) SystemHandle() handle.Handle { return s.sysH }

// CreateSystemFile installs a file writable only by high-integrity
// processes.
func (s *Server) CreateSystemFile(path string, data []byte) {
	s.files[path] = &file{data: data, system: true}
}

// Run is the server's event loop on the evloop runtime; it returns when
// Stop cancels the service's context.
func (s *Server) Run() { s.g.Run() }

// Stop shuts the server down: context first (ends Run), then kernel state.
func (s *Server) Stop() { s.g.Stop() }

func (s *Server) dispatch(d *kernel.Delivery) {
	op, r := wire.NewReader(d.Data)
	switch op {
	case OpAddUser:
		name := r.String()
		reply := r.Handle()
		if r.Err() {
			return
		}
		u, ok := s.users[name]
		if !ok {
			u = user{uT: s.proc.NewHandle(), uG: s.proc.NewHandle()}
			// The server must accept arbitrarily tainted traffic for this
			// user (its receive label is the union of all user taints —
			// exactly FSR = {uT 3, vT 3, 2} from §5.3).
			s.proc.RaiseRecv(u.uT, label.L3)
			s.users[name] = u
		}
		msg := wire.NewWriter(OpUserR).Byte(1).Handle(u.uT).Handle(u.uG).Done()
		s.proc.Port(reply).Send(msg, &kernel.SendOpts{
			//asbestos:keepstar volume the fs owns every user's uT/uG ⋆ for the volume's lifetime — it re-grants them on each OpAddUser and taints replies with uT (§5.3 FSR)
			DecontSend: kernel.Grant(u.uT, u.uG),
			DecontRecv: kernel.AllowRecv(label.L3, u.uT),
		})
	case OpCreate:
		path := r.String()
		owner := r.String()
		reply := r.Handle()
		if r.Err() {
			return
		}
		u, known := s.users[owner]
		okb := byte(0)
		if known && d.V.Get(u.uG) <= label.L0 {
			if _, exists := s.files[path]; !exists {
				s.files[path] = &file{owner: owner}
				okb = 1
			}
		}
		s.proc.Port(reply).Send(wire.NewWriter(OpWriteR).Byte(okb).Done(), nil)
	case OpWrite:
		path := r.String()
		data := r.Bytes()
		reply := r.Handle()
		if r.Err() {
			return
		}
		f := s.files[path]
		okb := byte(0)
		switch {
		case f == nil:
		case f.system:
			// §5.4 mandatory integrity: the network compartment must not
			// exceed level 1 in the sender's proof.
			if d.V.Get(s.sysH) <= label.L1 {
				f.data = append([]byte(nil), data...)
				okb = 1
			}
		default:
			u := s.users[f.owner]
			// Discretionary integrity: the sender proves it speaks for the
			// owner with V(uG) ≤ 0.
			if d.V.Get(u.uG) <= label.L0 {
				f.data = append([]byte(nil), data...)
				okb = 1
			}
		}
		// Write acknowledgments carry no file data, only a success bit the
		// verified writer is entitled to; they travel untainted so writers
		// without taint clearance still learn the outcome.
		s.proc.Port(reply).Send(wire.NewWriter(OpWriteR).Byte(okb).Done(), nil)
	case OpRead:
		path := r.String()
		reply := r.Handle()
		if r.Err() {
			return
		}
		f := s.files[path]
		if f == nil {
			s.proc.Port(reply).Send(wire.NewWriter(OpReadR).Byte(0).Bytes(nil).Done(), nil)
			return
		}
		msg := wire.NewWriter(OpReadR).Byte(1).Bytes(f.data).Done()
		// Privacy: reader becomes tainted with the owner's handle (§5.2
		// "a process that reads user u's file must become tainted with
		// uT 3"). System files are public.
		s.replyFor(f.owner, reply, msg)
	case OpList:
		reply := r.Handle()
		if r.Err() {
			return
		}
		paths := make([]string, 0, len(s.files))
		for p := range s.files {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		var joined []byte
		for _, p := range paths {
			joined = append(joined, p...)
			joined = append(joined, '\n')
		}
		s.proc.Port(reply).Send(wire.NewWriter(OpListR).Bytes(joined).Done(), nil)
	}
}

// replyFor sends a reply contaminated with the owner's taint (none for
// system/anonymous files).
func (s *Server) replyFor(owner string, to handle.Handle, msg []byte) {
	var opts *kernel.SendOpts
	if u, ok := s.users[owner]; ok && owner != "" {
		opts = &kernel.SendOpts{Contaminate: kernel.Taint(label.L3, u.uT)}
	}
	s.proc.Port(to).Send(msg, opts)
}

// --- client helpers ---

// Identity is a registered file-server principal.
type Identity struct {
	UT handle.Handle
	UG handle.Handle
}

// Register creates (or fetches) a user, granting the caller uT ⋆, uG ⋆ and
// uT-3 clearance. reply must be an owned endpoint of the calling process;
// Register blocks on it for the server's answer, bounded by ctx — under the
// unreliable-IPC contract the request or reply can be silently dropped, and
// a caller with no deadline would wedge forever.
func Register(ctx context.Context, fsPort *kernel.Port, name string, reply *kernel.Port) (Identity, error) {
	msg := wire.NewWriter(OpAddUser).String(name).Handle(reply.Handle()).Done()
	if err := fsPort.Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(reply.Handle())}); err != nil {
		return Identity{}, err
	}
	d, err := reply.Recv(ctx)
	if err != nil {
		return Identity{}, err
	}
	op, r := wire.NewReader(d.Data)
	ok := op == OpUserR && r.Byte() == 1
	id := Identity{UT: r.Handle(), UG: r.Handle()}
	if !ok {
		return Identity{}, fmt.Errorf("fs: register failed")
	}
	if r.Err() {
		return Identity{}, fmt.Errorf("fs: malformed register reply")
	}
	return id, nil
}

// Create makes a file owned by owner; the caller proves ownership with v.
func Create(fsPort *kernel.Port, path, owner string, reply handle.Handle, v *label.Label) error {
	msg := wire.NewWriter(OpCreate).String(path).String(owner).Handle(reply).Done()
	return fsPort.Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(reply), Verify: v})
}

// Write stores data; v proves write rights (owner uG 0, or sysH ≤ 1 for
// system files).
func Write(fsPort *kernel.Port, path string, data []byte, reply handle.Handle, v *label.Label) error {
	msg := wire.NewWriter(OpWrite).String(path).Bytes(data).Handle(reply).Done()
	return fsPort.Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(reply), Verify: v})
}

// Read fetches a file; the reply contaminates the caller with the owner's
// taint.
func Read(fsPort *kernel.Port, path string, reply handle.Handle) error {
	msg := wire.NewWriter(OpRead).String(path).Handle(reply).Done()
	return fsPort.Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
}

// List fetches all paths.
func List(fsPort *kernel.Port, reply handle.Handle) error {
	msg := wire.NewWriter(OpList).Handle(reply).Done()
	return fsPort.Send(msg, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
}

// ParseReadReply decodes an OpReadR delivery.
func ParseReadReply(d *kernel.Delivery) ([]byte, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpReadR {
		return nil, false
	}
	ok := r.Byte() == 1
	data := r.Bytes()
	if r.Err() || !ok {
		return nil, false
	}
	return data, true
}

// ParseWriteReply decodes an OpWriteR delivery.
func ParseWriteReply(d *kernel.Delivery) bool {
	op, r := wire.NewReader(d.Data)
	return op == OpWriteR && r.Byte() == 1 && !r.Err()
}

// ParseListReply decodes an OpListR delivery.
func ParseListReply(d *kernel.Delivery) (string, bool) {
	op, r := wire.NewReader(d.Data)
	if op != OpListR {
		return "", false
	}
	b := r.Bytes()
	if r.Err() {
		return "", false
	}
	return string(b), true
}
