// Capabilities: Asbestos port labels as send capabilities (paper §5.5).
//
// A freshly created port is private ({p 0} in its port label); the right to
// send to it is granted by decontaminating another process's send label
// with respect to the port handle — and, like a capability, the holder can
// re-delegate it. The example also shows the mail-reader pattern: a port
// label that blocks contamination from a compromised peer, and Select
// waiting on ports of two different processes in one call.
package main

import (
	"context"
	"fmt"
	"time"

	"asbestos"
)

func main() {
	sys := asbestos.NewSystem(asbestos.WithSeed(9))

	owner := sys.NewProcess("owner")
	service := owner.Open(nil) // port label {service 0, 3}: private

	// A stranger cannot send: ES(service)=1 > pR(service)=0.
	stranger := sys.NewProcess("stranger")
	stranger.Port(service.Handle()).Send([]byte("knock knock"), nil)
	if d, _ := service.TryRecv(); d == nil {
		fmt.Println("stranger -> service: DROPPED (no capability)")
	}

	// The owner mints a capability: DS = {service ⋆, 3} sent to a friend.
	friend := sys.NewProcess("friend")
	fPort := friend.Open(nil)
	fPort.SetLabel(asbestos.EmptyLabel(asbestos.L3))
	owner.Port(fPort.Handle()).Send(nil, &asbestos.SendOpts{DecontSend: asbestos.Grant(service.Handle())})
	fPort.TryRecv() // the grant rides the label; the payload is empty
	// The friend holds the capability now; a cached endpoint reuses the
	// resolved route for every later send.
	friendToService := friend.Port(service.Handle())
	friendToService.Send([]byte("hi, it's friend"), nil)
	d, _ := service.TryRecv()
	fmt.Printf("friend -> service: %q (capability granted)\n", d.Data)

	// Capabilities re-delegate: friend forwards the right to delegate.
	delegate := sys.NewProcess("delegate")
	dPort := delegate.Open(nil)
	dPort.SetLabel(asbestos.EmptyLabel(asbestos.L3))
	friend.Port(dPort.Handle()).Send(nil, &asbestos.SendOpts{DecontSend: asbestos.Grant(service.Handle())})
	dPort.TryRecv()
	delegate.Port(service.Handle()).Send([]byte("hello from delegate"), nil)
	d, _ = service.TryRecv()
	fmt.Printf("delegate -> service: %q (re-delegation works)\n", d.Data)

	// The mail-reader pattern (§5.5): a port label of {2} refuses tainted
	// senders outright, keeping the receiver's labels clean.
	mail := sys.NewProcess("mail-reader")
	inbox := mail.Open(asbestos.EmptyLabel(asbestos.L2))
	inbox.SetLabel(asbestos.EmptyLabel(asbestos.L2)) // open, but taint-proof

	attachment := sys.NewProcess("attachment")
	toInbox := attachment.Port(inbox.Handle())
	toInbox.Send([]byte("clean attachment output"), nil)
	d, _ = inbox.TryRecv()
	fmt.Printf("clean attachment -> inbox: %q\n", d.Data)

	tainter := sys.NewProcess("tainter")
	hT := tainter.NewHandle()
	attachment.ContaminateSelf(asbestos.Taint(asbestos.L3, hT))
	toInbox.Send([]byte("now compromised"), nil)
	if d, _ := inbox.TryRecv(); d == nil {
		fmt.Println("compromised attachment -> inbox: DROPPED by port label")
	}
	fmt.Printf("mail reader's send label stayed clean: %v\n", mail.SendLabel())

	// Select watches the service port and the mail inbox — queues of two
	// different processes — in one blocking call.
	friendToService.Send([]byte("one more"), nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	d, from, _ := asbestos.Select(ctx, inbox, service)
	fmt.Printf("Select woke on port %v with %q\n", from.Handle(), d.Data)
}
