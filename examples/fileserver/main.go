// Fileserver: the multi-user labeled file server of paper §5.2–§5.4.
//
// Demonstrates the privacy policy (readers are tainted; taint confines),
// discretionary integrity (writes need a speaks-for proof), mandatory
// integrity (the proof evaporates on low-integrity input), and the
// network-exclusion policy for system files — all through the asbestos
// facade's Port endpoints.
package main

import (
	"context"
	"fmt"
	"time"

	"asbestos"
)

func main() {
	// A deadline bounds every receive below: a lost reply fails the demo
	// instead of wedging it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sys := asbestos.NewSystem(asbestos.WithSeed(7))
	srv := asbestos.NewFileServer(sys)
	go srv.Run()
	defer srv.Stop()

	// Two users register; each gets (uT, uG) and clearance for its own
	// taint. Each shell binds the published server port as its endpoint.
	u := sys.NewProcess("u-shell")
	uFS := u.Port(srv.Port())
	ur := u.Open(nil)
	uid, _ := asbestos.FileRegister(ctx, uFS, "u", ur)
	v := sys.NewProcess("v-shell")
	vFS := v.Port(srv.Port())
	vr := v.Open(nil)
	asbestos.FileRegister(ctx, vFS, "v", vr)

	ownerV := asbestos.NewLabel(asbestos.L3, asbestos.Entry{H: uid.UG, L: asbestos.L0})
	asbestos.FileCreate(uFS, "/home/u/secret.txt", "u", ur.Handle(), ownerV)
	ur.Recv(ctx)
	asbestos.FileWrite(uFS, "/home/u/secret.txt", []byte("u's diary"), ur.Handle(), ownerV)
	ur.Recv(ctx)
	fmt.Println("u created and wrote /home/u/secret.txt (proved uG 0)")

	// v tries to read u's file: the tainted reply cannot reach v.
	asbestos.FileRead(vFS, "/home/u/secret.txt", vr.Handle())
	if d, _ := vr.TryRecv(); d == nil {
		fmt.Println("v's read of u's file: reply DROPPED (no clearance for u's taint)")
	}

	// v tries to overwrite it: the server demands a speaks-for proof.
	asbestos.FileWrite(vFS, "/home/u/secret.txt", []byte("defaced"), vr.Handle(), asbestos.EmptyLabel(asbestos.L3))
	d, _ := vr.Recv(ctx)
	fmt.Printf("v's write without proof: accepted=%v\n", asbestos.ParseFileWriteReply(d))

	// u grants v clearance to read (decentralized: no administrator).
	clear := v.Open(nil)
	clear.SetLabel(asbestos.EmptyLabel(asbestos.L3))
	u.Port(clear.Handle()).Send(nil, &asbestos.SendOpts{DecontRecv: asbestos.AllowRecv(asbestos.L3, uid.UT)})
	clear.TryRecv()
	asbestos.FileRead(vFS, "/home/u/secret.txt", vr.Handle())
	d, _ = vr.Recv(ctx)
	data, _ := asbestos.ParseFileReadReply(d)
	fmt.Printf("after u grants clearance, v reads: %q\n", data)
	fmt.Printf("v's send label now carries the taint: %v\n", v.SendLabel())

	// But v still cannot republish: an ordinary process won't receive from
	// tainted v.
	outsider := sys.NewProcess("outsider")
	op := outsider.Open(nil)
	op.SetLabel(asbestos.EmptyLabel(asbestos.L3))
	v.Port(op.Handle()).Send(data, nil)
	if d, _ := op.TryRecv(); d == nil {
		fmt.Println("v -> outsider: DROPPED (transitive confinement)")
	}

	// System-file integrity: netd is marked sysH 2 and cannot pass the
	// V(sysH) ≤ 1 check, nor can anything it contaminated.
	srv.CreateSystemFile("/etc/motd", []byte("welcome"))
	netd := sys.NewProcess("netd")
	netd.ContaminateSelf(asbestos.Taint(asbestos.L2, srv.SystemHandle()))
	nr := netd.Open(nil)
	sysV := asbestos.NewLabel(asbestos.L3, asbestos.Entry{H: srv.SystemHandle(), L: asbestos.L1})
	asbestos.FileWrite(netd.Port(srv.Port()), "/etc/motd", []byte("pwned"), nr.Handle(), sysV)
	if d, _ := nr.TryRecv(); d == nil {
		fmt.Println("network daemon's system-file write: DROPPED (mandatory integrity)")
	}
}
