package kernel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asbestos/internal/label"
)

// openPair returns a receiver with an open port and a sender bound to it.
func openPair(t *testing.T, s *System) (rx *Process, inbox *Port, tx *Process, out *Port) {
	t.Helper()
	rx = s.NewProcess("rx")
	inbox = rx.Open(nil)
	if err := inbox.SetLabel(label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	tx = s.NewProcess("tx")
	return rx, inbox, tx, tx.Port(inbox.Handle())
}

// TestPortSendEquivalence pins the tentpole invariant: a send through a
// cached endpoint is indistinguishable from the v1 handle-based call —
// same delivery, same label effects, same silent-drop behavior.
func TestPortSendEquivalence(t *testing.T) {
	s := NewSystem(WithSeed(21))
	_, inbox, tx, out := openPair(t, s)

	if err := out.Send([]byte("via endpoint"), nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Port(inbox.Handle()).Send([]byte("via handle"), nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"via endpoint", "via handle"} {
		d, err := inbox.TryRecv()
		if err != nil || d == nil {
			t.Fatalf("missing %q: %v %v", want, d, err)
		}
		if string(d.Data) != want {
			t.Fatalf("got %q, want %q", d.Data, want)
		}
	}

	// Label effects flow identically: a taint applied through the endpoint
	// contaminates the receiver on delivery.
	hT := tx.NewHandle()
	rx2 := s.NewProcess("rx2")
	in2 := rx2.Open(nil)
	in2.SetLabel(label.Empty(label.L3))
	if err := tx.Port(in2.Handle()).Send([]byte("x"), &SendOpts{
		Contaminate: Taint(label.L3, hT),
		DecontRecv:  AllowRecv(label.L3, hT),
	}); err != nil {
		t.Fatal(err)
	}
	if d, _ := in2.TryRecv(); d == nil {
		t.Fatal("tainted delivery missing")
	}
	if rx2.SendLabel().Get(hT) != label.L3 {
		t.Fatal("contamination did not apply through the endpoint path")
	}

	// A dissociated port keeps dropping silently through the stale cached
	// route, exactly like the v1 path.
	base := s.Drops()
	if err := inbox.Dissociate(); err != nil {
		t.Fatal(err)
	}
	if err := out.Send([]byte("into the void"), nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Drops() - base; got != 1 {
		t.Fatalf("drops through stale endpoint = %d, want 1", got)
	}
}

// TestPortEndpointForUnknownHandle checks lazy resolution: an endpoint may
// be bound before the kernel knows the handle names anything, and sends
// drop silently until then.
func TestPortEndpointForUnknownHandle(t *testing.T) {
	s := NewSystem(WithSeed(22))
	tx := s.NewProcess("tx")
	bogus := tx.Port(1 << 40)
	base := s.Drops()
	if err := bogus.Send([]byte("nowhere"), nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Drops() - base; got != 1 {
		t.Fatalf("drops = %d, want 1", got)
	}
	if err := bogus.SendBatch([]BatchEntry{{Data: []byte("a")}, {Data: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	if got := s.Drops() - base; got != 3 {
		t.Fatalf("drops = %d, want 3", got)
	}
}

func TestRecvCtxCancel(t *testing.T) {
	s := NewSystem(WithSeed(23))
	_, inbox, _, _ := openPair(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := inbox.Recv(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Recv returned early: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled Recv never returned")
	}
}

func TestRecvCtxDeadline(t *testing.T) {
	s := NewSystem(WithSeed(24))
	_, inbox, _, _ := openPair(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := inbox.Recv(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline wildly overshot")
	}

	// A message that is already deliverable wins over an expired context.
	_, inbox2, _, out2 := openPair(t, s)
	if err := out2.Send([]byte("ready"), nil); err != nil {
		t.Fatal(err)
	}
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	time.Sleep(time.Millisecond)
	d, err := inbox2.Recv(expired)
	if err != nil || string(d.Data) != "ready" {
		t.Fatalf("ready message lost to expired ctx: %v %v", d, err)
	}
}

func TestRecvCtxWakesOnDelivery(t *testing.T) {
	s := NewSystem(WithSeed(25))
	_, inbox, _, out := openPair(t, s)

	done := make(chan string, 1)
	go func() {
		d, err := inbox.Recv(context.Background())
		if err != nil {
			done <- err.Error()
			return
		}
		done <- string(d.Data)
	}()
	time.Sleep(5 * time.Millisecond) // let the receiver park
	if err := out.Send([]byte("wake"), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != "wake" {
			t.Fatalf("got %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("parked ctx receiver never woke")
	}
}

// TestSendDoesNotWaitForReceiverLock pins the wake path: a send into an
// empty inbox signals through the waiter set's own lock, so it returns while
// the receiver's mutex is held — as it is for a whole Figure 4 label pass
// during a receive scan — and the message is there when the scan's owner
// looks next. (Signalling under the receiver's mutex made the sender wait
// out the scan inside its own Kernel-IPC span.)
func TestSendDoesNotWaitForReceiverLock(t *testing.T) {
	s := NewSystem(WithSeed(26))
	rx, inbox, _, out := openPair(t, s)

	rx.mu.Lock() // a receive scan in progress
	sent := make(chan error, 1)
	go func() { sent <- out.Send([]byte("x"), nil) }()
	select {
	case err := <-sent:
		rx.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		rx.mu.Unlock()
		t.Fatal("send blocked on the receiver's mutex")
	}
	if d, err := inbox.TryRecv(); err != nil || d == nil || string(d.Data) != "x" {
		t.Fatalf("delivery after the scan: %v, %v", d, err)
	}
}

// TestRecvParkSeesPushDuringScan is the other half: a message published
// after the receiver's last drain but before it registers as a waiter finds
// nobody to signal, so the park itself must notice it.
func TestRecvParkSeesPushDuringScan(t *testing.T) {
	s := NewSystem(WithSeed(27))
	rx, inbox, _, out := openPair(t, s)

	rx.mu.Lock()
	rx.drainInbox() // the scan's drain: inbox empty, nothing pending
	if err := out.Send([]byte("late"), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := rx.waitLocked(ctx) // must not park on a signal already spent
	rx.mu.Unlock()
	if err != nil {
		t.Fatalf("park missed the message published during the scan: %v", err)
	}
	if d, err := inbox.TryRecv(); err != nil || d == nil || string(d.Data) != "late" {
		t.Fatalf("delivery: %v, %v", d, err)
	}
}

func TestMailboxDrainBurst(t *testing.T) {
	s := NewSystem(WithSeed(26))
	rx := s.NewProcess("rx")
	a := rx.Open(nil)
	a.SetLabel(label.Empty(label.L3))
	b := rx.Open(nil)
	b.SetLabel(label.Empty(label.L3))
	tx := s.NewProcess("tx")

	for i := 0; i < 3; i++ {
		tx.Port(a.Handle()).Send([]byte{byte('a' + i)}, nil)
		tx.Port(b.Handle()).Send([]byte{byte('A' + i)}, nil)
	}

	// A filtered mailbox drains only its own ports.
	var gotA []byte
	for d := range rx.Mailbox(a).Drain() {
		gotA = append(gotA, d.Data[0])
	}
	if string(gotA) != "abc" {
		t.Fatalf("drain(a) = %q, want abc", gotA)
	}

	// Early break stops the iterator; the rest stays queued.
	n := 0
	for range rx.Mailbox(b).Drain() {
		if n++; n == 2 {
			break
		}
	}
	if rest, _ := b.TryRecv(); rest == nil || rest.Data[0] != 'C' {
		t.Fatalf("after break, next = %v, want C", rest)
	}

	// Empty mailbox: Drain yields nothing.
	for range rx.Mailbox().Drain() {
		t.Fatal("drained from an empty queue")
	}
}

func TestMailboxRejectsForeignPort(t *testing.T) {
	s := NewSystem(WithSeed(27))
	_, inbox, tx, _ := openPair(t, s)
	defer func() {
		if recover() == nil {
			t.Fatal("Mailbox accepted a foreign process's port")
		}
	}()
	tx.Mailbox(inbox)
}

func TestSelectSamePortPriority(t *testing.T) {
	s := NewSystem(WithSeed(28))
	rx := s.NewProcess("rx")
	hi := rx.Open(nil)
	hi.SetLabel(label.Empty(label.L3))
	lo := rx.Open(nil)
	lo.SetLabel(label.Empty(label.L3))
	tx := s.NewProcess("tx")

	tx.Port(lo.Handle()).Send([]byte("low"), nil)
	tx.Port(hi.Handle()).Send([]byte("high"), nil)

	// FIFO across one process's queue: the oldest deliverable message wins
	// regardless of port order in the call.
	d, from, err := Select(context.Background(), hi, lo)
	if err != nil {
		t.Fatal(err)
	}
	if from != lo || string(d.Data) != "low" {
		t.Fatalf("Select returned %q from %v", d.Data, from)
	}
}

func TestSelectAcrossProcesses(t *testing.T) {
	s := NewSystem(WithSeed(29))
	_, inboxA, _, outA := openPair(t, s)
	_, inboxB, _, outB := openPair(t, s)

	// Blocked Select wakes when either process's queue goes non-empty.
	type res struct {
		d    *Delivery
		from *Port
		err  error
	}
	done := make(chan res, 1)
	go func() {
		d, from, err := Select(context.Background(), inboxA, inboxB)
		done <- res{d, from, err}
	}()
	time.Sleep(5 * time.Millisecond)
	if err := outB.Send([]byte("b first"), nil); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || r.from != inboxB || string(r.d.Data) != "b first" {
		t.Fatalf("Select = %+v", r)
	}

	// And a ready message on the other side returns immediately.
	outA.Send([]byte("a"), nil)
	d, from, err := Select(context.Background(), inboxA, inboxB)
	if err != nil || from != inboxA || string(d.Data) != "a" {
		t.Fatalf("Select = %q %v %v", d.Data, from, err)
	}
}

func TestSelectCtxAndErrors(t *testing.T) {
	s := NewSystem(WithSeed(30))
	_, inboxA, _, _ := openPair(t, s)
	rxB, inboxB, _, _ := openPair(t, s)

	if _, _, err := Select(context.Background()); err != ErrNoPorts {
		t.Fatalf("empty Select = %v, want ErrNoPorts", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := Select(ctx, inboxA, inboxB); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	// One process dead: Select keeps serving the live one.
	rxB.Exit()
	go func() {
		time.Sleep(5 * time.Millisecond)
		p := s.NewProcess("late-tx")
		p.Port(inboxA.Handle()).Send([]byte("still alive"), nil)
	}()
	d, from, err := Select(context.Background(), inboxA, inboxB)
	if err != nil || from != inboxA || string(d.Data) != "still alive" {
		t.Fatalf("Select with one dead process = %v %v %v", d, from, err)
	}
}

func TestSelectAllDead(t *testing.T) {
	s := NewSystem(WithSeed(31))
	rxA, inboxA, _, _ := openPair(t, s)
	rxB, inboxB, _, _ := openPair(t, s)

	done := make(chan error, 1)
	go func() {
		_, _, err := Select(context.Background(), inboxA, inboxB)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	rxA.Exit()
	rxB.Exit()
	select {
	case err := <-done:
		if err != ErrDead {
			t.Fatalf("err = %v, want ErrDead", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Select over dead processes never returned")
	}
}

// TestSelectStress races senders to N ports of distinct processes against
// one Select loop; run under -race this exercises the shared-waiter
// registration. Every message must arrive exactly once.
func TestSelectStress(t *testing.T) {
	const ports, perPort = 4, 200
	s := NewSystem(WithSeed(32))
	var eps []*Port
	for i := 0; i < ports; i++ {
		_, inbox, _, _ := openPair(t, s)
		eps = append(eps, inbox)
	}
	var wg sync.WaitGroup
	for i, pt := range eps {
		wg.Add(1)
		go func(i int, pt *Port) {
			defer wg.Done()
			tx := s.NewProcess(fmt.Sprintf("tx%d", i))
			out := tx.Port(pt.Handle())
			for j := 0; j < perPort; j++ {
				if err := out.Send([]byte{byte(i)}, nil); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(i, pt)
	}
	counts := make([]int, ports)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for got := 0; got < ports*perPort; got++ {
		d, _, err := Select(ctx, eps...)
		if err != nil {
			t.Fatalf("after %d deliveries: %v", got, err)
		}
		counts[d.Data[0]]++
	}
	wg.Wait()
	for i, c := range counts {
		if c != perPort {
			t.Fatalf("port %d delivered %d, want %d", i, c, perPort)
		}
	}
	var spare atomic.Int32
	for _, pt := range eps {
		if d, _ := pt.TryRecv(); d != nil {
			spare.Add(1)
		}
	}
	if spare.Load() != 0 {
		t.Fatalf("%d duplicated/extra messages", spare.Load())
	}
}

// TestCheckpointCtxCancel pins the worker-shutdown path: a blocked
// Checkpoint ends with the context instead of needing Exit.
func TestCheckpointCtxCancel(t *testing.T) {
	s := NewSystem(WithSeed(33))
	p := s.NewProcess("worker")
	port := p.Open(nil)
	port.SetLabel(label.Empty(label.L3))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := p.CheckpointCtx(ctx)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled Checkpoint never returned")
	}
	// The process is still alive and usable afterwards.
	tx := s.NewProcess("tx")
	tx.Port(port.Handle()).Send([]byte("hello"), nil)
	d, ep, err := p.Checkpoint()
	if err != nil || ep == nil || string(d.Data) != "hello" {
		t.Fatalf("Checkpoint after cancel = %v %v %v", d, ep, err)
	}
}

// TestPortLabelOps exercises the owner-side endpoint methods.
func TestPortLabelOps(t *testing.T) {
	s := NewSystem(WithSeed(34))
	rx := s.NewProcess("rx")
	inbox := rx.Open(nil)
	l := label.New(label.L2, label.Entry{H: inbox.Handle(), L: label.L0})
	if err := inbox.SetLabel(l); err != nil {
		t.Fatal(err)
	}
	got, err := inbox.Label()
	if err != nil || !got.Eq(l) {
		t.Fatalf("Label() = %v, %v", got, err)
	}
	// Non-owners cannot inspect or relabel.
	tx := s.NewProcess("tx")
	ep := tx.Port(inbox.Handle())
	if err := ep.SetLabel(l); err != ErrNotOwner {
		t.Fatalf("foreign SetLabel = %v, want ErrNotOwner", err)
	}
	if _, err := ep.Label(); err != ErrNotOwner {
		t.Fatalf("foreign Label = %v, want ErrNotOwner", err)
	}
}
