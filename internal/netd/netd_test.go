package netd

import (
	"context"
	"io"
	"testing"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
)

// rig boots a kernel with a running netd and an app process listening on
// lport 80.
type rig struct {
	sys    *kernel.System
	nd     *Netd
	app    *kernel.Process
	notify handle.Handle
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sys := kernel.NewSystem(kernel.WithSeed(7))
	nd := New(sys)
	go nd.Run()
	t.Cleanup(nd.Stop)

	app := sys.NewProcess("app")
	notify := app.Open(nil).Handle()
	svc, ok := sys.Env(EnvName)
	if !ok {
		t.Fatal("netd service port not published")
	}
	if err := Listen(app.Port(svc), 80, notify); err != nil {
		t.Fatal(err)
	}
	return &rig{sys: sys, nd: nd, app: app, notify: notify}
}

// accept dials in from the network and returns both endpoints.
func (r *rig) accept(t *testing.T) (*Conn, handle.Handle) {
	t.Helper()
	var c *Conn
	var err error
	// The Listen request is processed asynchronously by netd's loop;
	// retry the dial briefly.
	for i := 0; i < 100; i++ {
		c, err = r.nd.Network().Dial(80)
		if err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	d, err := recvOn(r.app, r.notify)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := ParseNotify(d)
	if !ok {
		t.Fatalf("bad notify %v", d.Data)
	}
	if n.LPort != 80 {
		t.Fatalf("lport = %d", n.LPort)
	}
	return c, n.ConnPort
}

func (r *rig) replyPort(p *kernel.Process) handle.Handle {
	return p.Open(nil).Handle()
}

// recvOn blocks for the next delivery on one port (the v1 Recv idiom, now
// explicit about its missing deadline).
func recvOn(p *kernel.Process, h handle.Handle) (*kernel.Delivery, error) {
	return p.RecvCtx(context.Background(), h)
}

func TestDialRefusedWithoutListener(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(7))
	nd := New(sys)
	go nd.Run()
	defer nd.Stop()
	if _, err := nd.Network().Dial(9999); err != ErrRefused {
		t.Fatalf("Dial without listener = %v, want ErrRefused", err)
	}
}

func TestAcceptReadWrite(t *testing.T) {
	r := newRig(t)
	c, connPort := r.accept(t)

	// Remote writes; app READs.
	go func() {
		c.Write([]byte("GET / HTTP/1.0\r\n\r\n"))
	}()
	reply := r.replyPort(r.app)
	if err := Read(r.app.Port(connPort), reply, 4096); err != nil {
		t.Fatal(err)
	}
	d, err := recvOn(r.app, reply)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := ParseReadReply(d)
	if !ok || rr.EOF || string(rr.Data) != "GET / HTTP/1.0\r\n\r\n" {
		t.Fatalf("read reply = %+v ok=%v", rr, ok)
	}

	// App WRITEs; remote reads.
	if err := Write(r.app.Port(connPort), reply, []byte("200 OK")); err != nil {
		t.Fatal(err)
	}
	d, _ = recvOn(r.app, reply)
	if n, ok := ParseWriteReply(d); !ok || n != 6 {
		t.Fatalf("write reply n=%d ok=%v", n, ok)
	}
	buf := make([]byte, 64)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "200 OK" {
		t.Fatalf("remote read %q, %v", buf[:n], err)
	}
}

func TestReadBlocksUntilData(t *testing.T) {
	r := newRig(t)
	c, connPort := r.accept(t)
	reply := r.replyPort(r.app)
	// Issue the READ before any data exists.
	if err := Read(r.app.Port(connPort), reply, 100); err != nil {
		t.Fatal(err)
	}
	done := make(chan string, 1)
	go func() {
		d, err := recvOn(r.app, reply)
		if err != nil {
			done <- err.Error()
			return
		}
		rr, _ := ParseReadReply(d)
		done <- string(rr.Data)
	}()
	select {
	case v := <-done:
		t.Fatalf("read completed early with %q", v)
	case <-time.After(10 * time.Millisecond):
	}
	c.Write([]byte("late data"))
	if got := <-done; got != "late data" {
		t.Fatalf("pending read got %q", got)
	}
}

func TestRemoteCloseGivesEOF(t *testing.T) {
	r := newRig(t)
	c, connPort := r.accept(t)
	c.Close()
	reply := r.replyPort(r.app)
	Read(r.app.Port(connPort), reply, 100)
	d, _ := recvOn(r.app, reply)
	rr, ok := ParseReadReply(d)
	if !ok || !rr.EOF {
		t.Fatalf("expected EOF reply, got %+v", rr)
	}
}

func TestAppCloseGivesRemoteEOF(t *testing.T) {
	r := newRig(t)
	c, connPort := r.accept(t)
	reply := r.replyPort(r.app)
	Write(r.app.Port(connPort), reply, []byte("bye"))
	recvOn(r.app, reply)
	Control(r.app.Port(connPort), reply, CtlClose)
	d, _ := recvOn(r.app, reply)
	op := d.Data[0]
	if op != OpControlReply {
		t.Fatalf("control reply op = %d", op)
	}
	// Remote drains "bye" then sees EOF.
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("drain = %q, %v", buf[:n], err)
	}
	if _, err := c.Read(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestTaintedConnectionFlow(t *testing.T) {
	// The heart of §7.7: after AddTaint, (a) replies carry uT 3, (b) only
	// processes whose labels tolerate uT can interact, and (c) a process
	// tainted with a DIFFERENT user's handle cannot write to the
	// connection.
	r := newRig(t)
	c, connPort := r.accept(t)

	// The app plays ok-demux: it owns uT and grants it to netd. Holding
	// uT ⋆ protects its send label but it must still raise its receive
	// label to accept uT-tainted replies (Equation 6).
	uT := r.app.NewHandle()
	if err := r.app.RaiseRecv(uT, label.L3); err != nil {
		t.Fatal(err)
	}
	reply := r.replyPort(r.app)
	if err := AddTaint(r.app.Port(connPort), reply, uT); err != nil {
		t.Fatal(err)
	}
	// The AddTaint reply itself is tainted; the app must be able to
	// receive it (it has uT ⋆, so contamination does not stick).
	d, err := recvOn(r.app, reply)
	if err != nil || d.Data[0] != OpAddTaintReply {
		t.Fatalf("addtaint reply: %v %v", d, err)
	}
	if r.app.SendLabel().Get(uT) != label.Star {
		t.Fatal("app should retain uT ⋆")
	}

	// netd's receive label picked up uT 3 (the Figure 9 accumulation).
	if r.nd.Process().RecvLabel().Get(uT) != label.L3 {
		t.Fatal("netd receive label must include uT 3")
	}

	// A worker tainted with uT CAN write to the connection...
	worker := r.sys.NewProcess("worker")
	wReply := worker.Open(nil).Handle()
	// demux-style handoff: grant uC ⋆ + contaminate uT 3.
	handoff := worker.Open(nil)
	handoff.SetLabel(label.Empty(label.L3))
	if err := r.app.Port(handoff.Handle()).Send(nil, &kernel.SendOpts{
		DecontSend:  kernel.Grant(connPort),
		Contaminate: kernel.Taint(label.L3, uT),
		DecontRecv:  kernel.AllowRecv(label.L3, uT),
	}); err != nil {
		t.Fatal(err)
	}
	if d, _ := worker.TryRecv(); d == nil {
		t.Fatal("handoff dropped")
	}
	if err := Write(worker.Port(connPort), wReply, []byte("for u")); err != nil {
		t.Fatal(err)
	}
	d2, err := recvOn(worker, wReply)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := ParseWriteReply(d2); !ok || n != 5 {
		t.Fatalf("tainted worker write failed: %d %v", n, ok)
	}
	buf := make([]byte, 16)
	n, _ := c.Read(buf)
	if string(buf[:n]) != "for u" {
		t.Fatalf("remote got %q", buf[:n])
	}

	// ...but a worker tainted with ANOTHER user's handle cannot: its send
	// label {uT 3, vT 3} fails the port label {uC 0, uT 3, 2}.
	evil := r.sys.NewProcess("evil")
	vT := r.app.NewHandle()
	evil.ContaminateSelf(kernel.Taint(label.L3, uT, vT))
	eReply := evil.Open(nil).Handle()
	before := r.sys.Drops()
	Write(evil.Port(connPort), eReply, []byte("stolen"))
	if r.sys.Drops() <= before {
		// The message may still be queued; poke netd with a no-op and
		// verify nothing reached the remote.
	}
	// Drain any remote data for a moment: nothing must arrive.
	got := make(chan []byte, 1)
	go func() {
		b := make([]byte, 16)
		n, err := c.Read(b)
		if err == nil {
			got <- b[:n]
		}
	}()
	select {
	case b := <-got:
		t.Fatalf("cross-user data leaked to u's connection: %q", b)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestWindowBackpressure(t *testing.T) {
	r := newRig(t)
	c, connPort := r.accept(t)
	// Remote floods more than one window; writes must block until the app
	// drains.
	done := make(chan struct{})
	payload := make([]byte, connWindow+1000)
	go func() {
		c.Write(payload)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("write of window+1000 bytes should have blocked")
	case <-time.After(10 * time.Millisecond):
	}
	// Drain via READs.
	reply := r.replyPort(r.app)
	drained := 0
	for drained < len(payload) {
		Read(r.app.Port(connPort), reply, 64*1024)
		d, err := recvOn(r.app, reply)
		if err != nil {
			t.Fatal(err)
		}
		rr, ok := ParseReadReply(d)
		if !ok {
			t.Fatal("bad read reply")
		}
		drained += len(rr.Data)
	}
	<-done
	if drained != len(payload) {
		t.Fatalf("drained %d, want %d", drained, len(payload))
	}
}

func TestMultipleConnections(t *testing.T) {
	r := newRig(t)
	const n = 20
	conns := make([]*Conn, n)
	ports := make([]handle.Handle, n)
	for i := 0; i < n; i++ {
		conns[i], ports[i] = r.accept(t)
	}
	reply := r.replyPort(r.app)
	for i := 0; i < n; i++ {
		conns[i].Write([]byte{byte('a' + i)})
	}
	seen := make(map[handle.Handle]byte)
	for i := 0; i < n; i++ {
		Read(r.app.Port(ports[i]), reply, 10)
		d, err := recvOn(r.app, reply)
		if err != nil {
			t.Fatal(err)
		}
		rr, _ := ParseReadReply(d)
		if len(rr.Data) != 1 {
			t.Fatalf("conn %d: got %q", i, rr.Data)
		}
		seen[ports[i]] = rr.Data[0]
	}
	for i := 0; i < n; i++ {
		if seen[ports[i]] != byte('a'+i) {
			t.Fatalf("conn %d data mixed up: %c", i, seen[ports[i]])
		}
	}
}

// shardedRig boots a 3-loop netd with two listener notify ports on lport 80.
func shardedRig(t *testing.T) (*rig, handle.Handle) {
	t.Helper()
	sys := kernel.NewSystem(kernel.WithSeed(17))
	nd := NewSharded(sys, 3)
	go nd.Run()
	t.Cleanup(nd.Stop)

	app := sys.NewProcess("app")
	notify := app.Open(nil).Handle()
	notify2 := app.Open(nil).Handle()
	svc, _ := sys.Env(EnvName)
	if err := Listen(app.Port(svc), 80, notify); err != nil {
		t.Fatal(err)
	}
	if err := Listen(app.Port(svc), 80, notify2); err != nil {
		t.Fatal(err)
	}
	return &rig{sys: sys, nd: nd, app: app, notify: notify}, notify2
}

// TestShardedNetdDealsConnections drives a 3-shard netd: connections are
// owned by the shard hashing their id, listener registrations replicate to
// every shard, and each shard deals notifications round-robin over the
// registered notify ports — so both listener endpoints see traffic and
// every connection stays usable end to end.
func TestShardedNetdDealsConnections(t *testing.T) {
	r, notify2 := shardedRig(t)
	const conns = 12
	remote := make([]*Conn, conns)
	for i := range remote {
		var err error
		for try := 0; try < 200; try++ {
			remote[i], err = r.nd.Network().Dial(80)
			if err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	// Collect one notify per connection, from either listener port.
	seen := map[handle.Handle]int{}
	ports := make([]handle.Handle, 0, conns)
	for i := 0; i < conns; i++ {
		d, err := r.app.RecvCtx(context.Background(), r.notify, notify2)
		if err != nil {
			t.Fatal(err)
		}
		n, ok := ParseNotify(d)
		if !ok || n.LPort != 80 {
			t.Fatalf("bad notify: %+v", d)
		}
		seen[d.Port]++
		ports = append(ports, n.ConnPort)
	}
	if seen[r.notify] == 0 || seen[notify2] == 0 {
		t.Fatalf("round-robin dealing left a listener dry: %v", seen)
	}
	// Every connection works regardless of which shard owns it.
	reply := r.replyPort(r.app)
	for i, p := range ports {
		msg := []byte{byte('A' + i)}
		if err := Write(r.app.Port(p), reply, msg); err != nil {
			t.Fatal(err)
		}
		if d, err := recvOn(r.app, reply); err != nil {
			t.Fatal(err)
		} else if n, ok := ParseWriteReply(d); !ok || n != 1 {
			t.Fatalf("conn %d write reply: %d %v", i, n, ok)
		}
	}
	for i, c := range remote {
		buf := make([]byte, 4)
		n, err := c.Read(buf)
		if err != nil || n != 1 {
			t.Fatalf("remote %d read: %v", i, err)
		}
	}
}

// TestEmptyDeliveryIgnoredByNetd fires zero-length payloads at the service
// and (via capability) a connection port: both dispatchers must ignore them
// and keep serving.
func TestEmptyDeliveryIgnoredByNetd(t *testing.T) {
	r := newRig(t)
	c, connPort := r.accept(t)
	svc, _ := r.sys.Env(EnvName)
	for _, payload := range [][]byte{nil, {}} {
		if err := r.app.Port(svc).Send(payload, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.app.Port(connPort).Send(payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The connection still works.
	reply := r.replyPort(r.app)
	go c.Write([]byte("still here"))
	if err := Read(r.app.Port(connPort), reply, 64); err != nil {
		t.Fatal(err)
	}
	d, err := recvOn(r.app, reply)
	if err != nil {
		t.Fatal(err)
	}
	if rr, ok := ParseReadReply(d); !ok || string(rr.Data) != "still here" {
		t.Fatalf("read after empty deliveries: %+v %v", rr, ok)
	}
}

// TestUnacknowledgedWriteAndClose pins the handle.None rule on Write and
// Control: the operation is applied, no reply capability changes hands (the
// caller's and netd's send labels end where they started) and no message
// comes back. The acknowledged form is covered by TestAcceptReadWrite and
// TestAppCloseGivesRemoteEOF.
func TestUnacknowledgedWriteAndClose(t *testing.T) {
	r := newRig(t)
	waitListening(t, r.nd, 80)
	netdBefore := r.nd.Process().SendLabel().String() // holds the notify ⋆ only
	c, connPort := r.accept(t)
	conn := r.app.Port(connPort)
	reply := r.replyPort(r.app)             // for the fence below
	appBefore := r.app.SendLabel().String() // holds uC ⋆ and reply ⋆

	if err := Write(conn, handle.None, []byte("fire")); err != nil {
		t.Fatal(err)
	}
	if err := Write(conn, handle.None, []byte(" and forget")); err != nil {
		t.Fatal(err)
	}
	// An acknowledged empty Write behind the writes is answered after them
	// (per-sender FIFO), so once it returns the writes have been applied.
	if err := Write(conn, reply, nil); err != nil {
		t.Fatal(err)
	}
	if d, err := recvOn(r.app, reply); err != nil {
		t.Fatalf("fence write: %v", err)
	} else if n, ok := ParseWriteReply(d); !ok || n != 0 {
		t.Fatalf("fence write reply: n=%d ok=%v", n, ok)
	}
	buf := make([]byte, 32)
	n, err := io.ReadFull(c, buf[:15])
	if err != nil || string(buf[:n]) != "fire and forget" {
		t.Fatalf("remote got %q, %v", buf[:n], err)
	}
	if d, _ := r.app.TryRecv(); d != nil {
		t.Fatalf("unacknowledged write was answered: % x", d.Data)
	}

	if err := Control(conn, handle.None, CtlClose); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(buf); err != io.EOF {
		t.Fatalf("remote after unacknowledged close: %v, want EOF", err)
	}
	// Unregister is the last step of the shard's teardown.
	for i := 0; r.nd.Injector().ConnCount() != 0; i++ {
		if i == 1000 {
			t.Fatal("connection never torn down")
		}
		time.Sleep(time.Millisecond)
	}
	if d, _ := r.app.TryRecv(); d != nil {
		t.Fatalf("unacknowledged close was answered: % x", d.Data)
	}
	if got := r.app.SendLabel().String(); got != appBefore {
		t.Fatalf("caller's send label moved:\n before %s\n after  %s", appBefore, got)
	}
	// netd shed uC ⋆ with the connection and the fence's reply ⋆ after its
	// flush; the unacknowledged messages granted it nothing to shed.
	if got := r.nd.Process().SendLabel().String(); got != netdBefore {
		t.Fatalf("netd's send label moved:\n before %s\n after  %s", netdBefore, got)
	}
}
