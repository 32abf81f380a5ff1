// Fixtures for privdrop: a star-level kernel.Grant must be paired with
// DropPrivilege/DropAfter on every path, or waived with
// //asbestos:keepstar <lifetime> <reason>.
package a

import (
	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/wire"
)

type shard struct {
	proc     *kernel.Process
	out      *kernel.Batcher
	deferred []pending
}

type pending struct {
	reply handle.Handle
}

// --- PR 6 regression: the handleLogin reply-capability leak. The failure
// path sends a reply with the granted capability and returns without ever
// shedding the ⋆ — one leaked label entry per failed login.
func (s *shard) handleLoginOld(d *kernel.Delivery, authed bool) {
	_, r := wire.NewReader(d.Data)
	reply := r.Handle()
	if r.Err() {
		return
	}
	if !authed {
		s.proc.Port(reply).Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
		return // want `star-level grant of reply is not dropped on this path \(return\)`
	}
	s.proc.Port(reply).Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
	s.proc.DropPrivilege(reply, label.L1)
}

// The PR 6 fix shape: both paths drop.
func (s *shard) handleLoginFixed(d *kernel.Delivery, authed bool) {
	_, r := wire.NewReader(d.Data)
	reply := r.Handle()
	if r.Err() {
		return
	}
	if !authed {
		s.proc.Port(reply).Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
		s.proc.DropPrivilege(reply, label.L1)
		return
	}
	s.proc.Port(reply).Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
	s.proc.DropPrivilege(reply, label.L1)
}

// --- basic pairing

func leakAtExit(p *kernel.Process, pt *kernel.Port, h handle.Handle) {
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
} // want `star-level grant of h is not dropped on this path \(function exit\)`

func pairedWithDropAfter(s *shard, pt *kernel.Port, h handle.Handle) {
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
	s.out.DropAfter(h)
}

func pairedOnAllPaths(p *kernel.Process, pt *kernel.Port, h handle.Handle, cond bool) {
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
	if cond {
		p.DropPrivilege(h, label.L1)
		return
	}
	p.DropPrivilege(h, label.L0)
}

func selectorResource(p *kernel.Process, pt *kernel.Port, pend pending) {
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(pend.reply)})
	p.DropPrivilege(pend.reply, label.L1)
}

// --- sanctioned escapes

// Recording the handle for a deferred drop is a discharge: the flush path
// owns the pairing.
func (s *shard) recordsDeferred(pt *kernel.Port, h handle.Handle) {
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
	s.deferred = append(s.deferred, pending{reply: h})
}

// A grant built in a return statement is the caller's value; the pairing
// obligation travels with it.
func clientHelper(pt *kernel.Port, reply handle.Handle) error {
	return pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(reply)})
}

// Granting ⋆ on your own port is the registration handoff the IPC model
// is built on — exempt, directly or through a dedicated variable.
func ownPortDirect(p *kernel.Process, pt *kernel.Port) {
	own := p.Open(nil)
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(own.Handle())})
}

func ownPortViaVar(p *kernel.Process, pt *kernel.Port) {
	uW := p.Open(nil).Handle()
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(uW)})
}

// A same-package helper that always drops counts as the pairing.
func (s *shard) replyFail(reply handle.Handle) {
	s.proc.Port(reply).Send(nil, nil)
	s.proc.DropPrivilege(reply, label.L1)
}

func (s *shard) viaAlwaysDropHelper(pt *kernel.Port, h handle.Handle) {
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
	s.replyFail(h)
}

// --- loops: a re-grant per iteration with no drop leaks cumulatively

func (s *shard) broadcastLeaks(ports []*kernel.Port, h handle.Handle) {
	for _, pt := range ports {
		pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
	} // want `star-level grant of h is not dropped on this path \(end of loop iteration`
}

// --- waivers

func waivedLongLived(pt *kernel.Port, h handle.Handle) {
	//asbestos:keepstar authority the service holds this taint handle's star for the account's lifetime
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
}

func waiverNeedsReason(pt *kernel.Port, h handle.Handle) {
	//asbestos:keepstar
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
} // want `asbestos:keepstar waiver needs a reason`

func waiverNeedsLifetime(pt *kernel.Port, h handle.Handle) {
	//asbestos:keepstar the service holds this taint handle's star for the account's lifetime
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
} // want `asbestos:keepstar waiver needs a lifetime \(conn, session, listener, volume or authority\) before its reason, not "the"`

func waiverUnknownLifetime(pt *kernel.Port, h handle.Handle) {
	//asbestos:keepstar forever the service holds this taint handle's star
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
} // want `asbestos:keepstar waiver needs a lifetime .* not "forever"`

func waiverLifetimeNeedsReason(pt *kernel.Port, h handle.Handle) {
	//asbestos:keepstar session
	pt.Send(nil, &kernel.SendOpts{DecontSend: kernel.Grant(h)})
} // want `asbestos:keepstar waiver needs a reason after its lifetime`
