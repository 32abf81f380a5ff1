// Quickstart: the Asbestos label system in twenty lines of flow.
//
// Creates a kernel, two processes and a compartment; shows the Port
// endpoint API (owned receive ports, bound send endpoints, context-aware
// receives), contamination tracking, the transitive confinement of tainted
// data, and decentralized declassification — the core of paper §5.
package main

import (
	"context"
	"fmt"
	"time"

	"asbestos"
)

func main() {
	sys := asbestos.NewSystem(asbestos.WithSeed(1))

	// Alice owns a secret compartment: she gets ⋆ (declassification
	// privilege) for the new handle.
	alice := sys.NewProcess("alice")
	secret := alice.NewHandle()
	fmt.Printf("alice's send label:   %v\n", alice.SendLabel())

	// Bob opens a port — Open returns the owning endpoint: he receives on
	// it, alice binds its handle as her send endpoint.
	bob := sys.NewProcess("bob")
	inbox := bob.Open(nil)
	inbox.SetLabel(asbestos.EmptyLabel(asbestos.L3))

	// Alice raises bob's clearance and sends data contaminated with
	// {secret 3} through her endpoint.
	toBob := alice.Port(inbox.Handle())
	toBob.Send([]byte("the plans"), &asbestos.SendOpts{
		Contaminate: asbestos.Taint(asbestos.L3, secret),
		DecontRecv:  asbestos.AllowRecv(asbestos.L3, secret),
	})

	// Receives are context-aware: deadlines and cancellation, no spinning.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	d, _ := inbox.Recv(ctx)
	fmt.Printf("bob received:         %q\n", d.Data)
	fmt.Printf("bob's send label:     %v  <- tainted by the kernel\n", bob.SendLabel())

	// Carol is an ordinary process. Tainted bob cannot reach her: the
	// kernel silently drops the message (unreliable send, §4).
	carol := sys.NewProcess("carol")
	cInbox := carol.Open(nil)
	cInbox.SetLabel(asbestos.EmptyLabel(asbestos.L3))
	bob.Port(cInbox.Handle()).Send([]byte("leaked plans"), nil)
	if d, _ := cInbox.TryRecv(); d == nil {
		fmt.Println("bob -> carol:         DROPPED (information flow blocked)")
	}

	// Alice, holding ⋆, can declassify: she forwards the data untainted.
	alice.Port(cInbox.Handle()).Send([]byte("sanitized plans"), nil)
	if d, _ := cInbox.TryRecv(); d != nil {
		fmt.Printf("alice -> carol:       %q (owner declassifies)\n", d.Data)
	}
	fmt.Printf("kernel drop counter:  %d\n", sys.Drops())
}
