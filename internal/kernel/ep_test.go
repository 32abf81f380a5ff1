package kernel

import (
	"fmt"
	"testing"

	"asbestos/internal/handle"
	"asbestos/internal/label"
	"asbestos/internal/mem"
)

// workerHarness builds a base process with an open service port, ready to
// enter the event-process realm.
func workerHarness(t *testing.T, s *System) (*Process, handle.Handle) {
	t.Helper()
	w := s.NewProcess("worker")
	svc := w.Open(nil).Handle()
	if err := w.SetPortLabel(svc, label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	return w, svc
}

func TestCheckpointCreatesEventProcessPerBaseMessage(t *testing.T) {
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("one"), nil)
	client.Port(svc).Send([]byte("two"), nil)

	d1, ep1, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(d1.Data) != "one" || !ep1.FirstRun() {
		t.Fatalf("first delivery: %q firstRun=%v", d1.Data, ep1.FirstRun())
	}
	if err := w.Yield(); err != nil {
		t.Fatal(err)
	}
	d2, ep2, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(d2.Data) != "two" {
		t.Fatalf("second delivery: %q", d2.Data)
	}
	if ep1.ID() == ep2.ID() {
		t.Fatal("each message to a base port must create a fresh event process")
	}
	if w.EPCount() != 2 {
		t.Fatalf("EPCount = %d, want 2", w.EPCount())
	}
}

func TestEventProcessPortRouting(t *testing.T) {
	// A message to a port created by an event process resumes that event
	// process, with its state intact (§6.1, §7.3 session flow).
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")

	client.Port(svc).Send([]byte("hello"), nil)
	_, ep, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	epPort := w.Open(nil).Handle() // created in ep's context: ep owns it
	w.SetPortLabel(epPort, label.Empty(label.L3))
	ep.Memory().WriteAt(0, []byte("session-state"))
	w.Yield()

	// Second message goes directly to the event process's port.
	client.Port(epPort).Send([]byte("again"), nil)
	d, ep2, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ep2.ID() != ep.ID() {
		t.Fatalf("message to EP port resumed EP %d, want %d", ep2.ID(), ep.ID())
	}
	if ep2.FirstRun() {
		t.Fatal("resumed event process must not report FirstRun")
	}
	if string(d.Data) != "again" {
		t.Fatalf("delivery = %q", d.Data)
	}
	buf := make([]byte, 13)
	ep2.Memory().ReadAt(0, buf)
	if string(buf) != "session-state" {
		t.Fatalf("session state lost: %q", buf)
	}
}

func TestEventProcessMemoryIsolation(t *testing.T) {
	s := newSys()
	w, svc := workerHarness(t, s)
	w.Memory().WriteAt(0, []byte("BASE"))
	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("u"), nil)
	client.Port(svc).Send([]byte("v"), nil)

	_, epU, _ := w.Checkpoint()
	epU.Memory().WriteAt(0, []byte("UUUU"))
	w.Yield()
	_, epV, _ := w.Checkpoint()
	buf := make([]byte, 4)
	epV.Memory().ReadAt(0, buf)
	if string(buf) != "BASE" {
		t.Fatalf("new event process sees %q, want base memory", buf)
	}
	epV.Memory().WriteAt(0, []byte("VVVV"))
	w.Yield()

	// Both EPs retain their own views.
	epU.Memory().ReadAt(0, buf)
	if string(buf) != "UUUU" {
		t.Fatalf("epU state = %q", buf)
	}
	epV.Memory().ReadAt(0, buf)
	if string(buf) != "VVVV" {
		t.Fatalf("epV state = %q", buf)
	}
}

func TestEventProcessLabelIsolation(t *testing.T) {
	// Contamination delivered to one event process must not affect the
	// base process or sibling event processes (§6.1: the file server "would
	// end up contaminating an event process's send label with the user's
	// handle, correctly reflecting that just the event process was
	// contaminated").
	s := newSys()
	w, svc := workerHarness(t, s)
	idd := s.NewProcess("idd")
	uT := idd.NewHandle()
	vT := idd.NewHandle()

	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("conn-u"), nil)
	client.Port(svc).Send([]byte("conn-v"), nil)

	_, epU, _ := w.Checkpoint()
	epUPort := w.Open(nil).Handle()
	w.SetPortLabel(epUPort, label.Empty(label.L3))
	w.Yield()
	_, epV, _ := w.Checkpoint()
	epVPort := w.Open(nil).Handle()
	w.SetPortLabel(epVPort, label.Empty(label.L3))
	w.Yield()

	// idd taints each event process with its user's handle.
	idd.Port(epUPort).Send([]byte("taint"), &SendOpts{
		Contaminate: Taint(label.L3, uT), DecontRecv: AllowRecv(label.L3, uT)})
	idd.Port(epVPort).Send([]byte("taint"), &SendOpts{
		Contaminate: Taint(label.L3, vT), DecontRecv: AllowRecv(label.L3, vT)})

	d, ep, _ := w.Checkpoint()
	if d == nil || ep.ID() != epU.ID() {
		t.Fatalf("expected epU resumption, got ep %v", ep)
	}
	if got := w.SendLabel().Get(uT); got != label.L3 {
		t.Fatalf("epU taint = %v, want 3", got)
	}
	w.Yield()
	d, ep, _ = w.Checkpoint()
	if d == nil || ep.ID() != epV.ID() {
		t.Fatalf("expected epV resumption")
	}
	// epV must carry vT taint but NOT uT taint.
	if got := w.SendLabel().Get(vT); got != label.L3 {
		t.Fatalf("epV vT = %v, want 3", got)
	}
	if got := w.SendLabel().Get(uT); got != label.L1 {
		t.Fatalf("epV uT = %v, want 1 (isolated from sibling's taint)", got)
	}
	w.Yield()
}

func TestEPCleanRevertsPages(t *testing.T) {
	s := newSys()
	w, svc := workerHarness(t, s)
	w.Memory().WriteAt(0, []byte("base"))
	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("go"), nil)
	_, ep, _ := w.Checkpoint()
	// Stack scribbling on page 0, session data on page 5.
	ep.Memory().WriteAt(10, []byte("stack trash"))
	ep.Memory().WriteAt(5*mem.PageSize, []byte("session"))
	if ep.Memory().PrivatePages() != 2 {
		t.Fatalf("private pages = %d", ep.Memory().PrivatePages())
	}
	if err := w.EPClean(0, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if ep.Memory().PrivatePages() != 1 {
		t.Fatalf("after clean: %d private pages, want 1", ep.Memory().PrivatePages())
	}
	w.Yield()
}

func TestEPExitFreesState(t *testing.T) {
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("go"), nil)
	_, ep, _ := w.Checkpoint()
	epPort := w.Open(nil).Handle()
	w.SetPortLabel(epPort, label.Empty(label.L3))
	ep.Memory().WriteAt(0, []byte("x"))
	if err := w.EPExit(); err != nil {
		t.Fatal(err)
	}
	if w.EPCount() != 0 {
		t.Fatalf("EPCount after exit = %d", w.EPCount())
	}
	// Messages to the dead event process's port are dropped.
	before := s.Drops()
	client.Port(epPort).Send([]byte("late"), nil)
	client.Port(svc).Send([]byte("fresh"), nil)
	d, ep2, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Data) != "fresh" || ep2.ID() == ep.ID() {
		t.Fatalf("delivery after EPExit = %q", d.Data)
	}
	if s.Drops() <= before {
		t.Fatal("message to exited EP's port should be counted as dropped")
	}
	w.Yield()
}

// TestCheckpointCountsAndFreesDrops: a message queued to an event process's
// port while it runs, and still pending when it exits, is dropped by the next
// Checkpoint like any message to a dead port — counted under "dead" in
// DropStats as well as in Drops — so DropStats still sums to Drops.
func TestCheckpointCountsAndFreesDrops(t *testing.T) {
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("go"), nil)
	d, _, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	epPort := w.Open(nil).Handle()
	if err := w.SetPortLabel(epPort, label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	client.Port(epPort).Send([]byte("late"), nil)
	if err := w.EPExit(); err != nil {
		t.Fatal(err)
	}
	drops, dead := s.Drops(), s.DropStats()["dead"]
	client.Port(svc).Send([]byte("fresh"), nil)
	if d, _, err = w.Checkpoint(); err != nil || string(d.Data) != "fresh" {
		t.Fatalf("delivery after EPExit = %v, %v", d, err)
	}
	if got := s.Drops() - drops; got != 1 {
		t.Fatalf("Drops rose by %d, want 1", got)
	}
	if got := s.DropStats()["dead"] - dead; got != 1 {
		t.Errorf(`DropStats()["dead"] rose by %d, want 1`, got)
	}
	var sum uint64
	for _, n := range s.DropStats() {
		sum += n
	}
	if sum != s.Drops() {
		t.Errorf("DropStats sums to %d, Drops is %d", sum, s.Drops())
	}
	w.Yield()
}

func TestImplicitYieldOnCheckpoint(t *testing.T) {
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("a"), nil)
	client.Port(svc).Send([]byte("b"), nil)
	_, ep1, _ := w.Checkpoint()
	// No explicit Yield: Checkpoint must save ep1 and move on.
	_, ep2, _ := w.Checkpoint()
	if ep1.ID() == ep2.ID() {
		t.Fatal("second checkpoint should run a different event process")
	}
	if cur := w.Current(); cur == nil || cur.ID() != ep2.ID() {
		t.Fatal("current EP wrong after implicit yield")
	}
}

func TestYieldErrorsOutsideRealm(t *testing.T) {
	s := newSys()
	w := s.NewProcess("w")
	if err := w.Yield(); err != ErrNotInRealm {
		t.Fatalf("Yield outside realm = %v", err)
	}
	if err := w.EPClean(0, 1); err != ErrNotInRealm {
		t.Fatalf("EPClean outside realm = %v", err)
	}
	if err := w.EPExit(); err != ErrNotInRealm {
		t.Fatalf("EPExit outside realm = %v", err)
	}
}

func TestEventProcessRecvOnOwnPort(t *testing.T) {
	// An event process can block in recv on its own port — e.g. awaiting a
	// database reply mid-request (§6.1).
	s := newSys()
	w, svc := workerHarness(t, s)
	db := s.NewProcess("db")
	dbPort := db.Open(nil).Handle()
	db.SetPortLabel(dbPort, label.Empty(label.L3))

	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("req"), nil)
	_, _, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	reply := w.Open(nil).Handle()
	w.SetPortLabel(reply, label.Empty(label.L3))
	if err := w.Port(dbPort).Send([]byte("query"), nil); err != nil {
		t.Fatal(err)
	}
	if d, _ := db.TryRecv(); d == nil || string(d.Data) != "query" {
		t.Fatal("db did not get query")
	}
	db.Port(reply).Send([]byte("rows"), nil)
	d, err := w.TryRecv(reply)
	if err != nil || d == nil || string(d.Data) != "rows" {
		t.Fatalf("EP recv on own port = %v, %v", d, err)
	}
	w.Yield()
}

func TestBaseRecvBlockedInRealm(t *testing.T) {
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")
	client.Port(svc).Send([]byte("x"), nil)
	w.Checkpoint()
	w.Yield()
	// After yield (no active EP) plain Recv must refuse: only Checkpoint
	// may schedule event processes.
	if _, err := w.TryRecv(); err != ErrNotInRealm {
		t.Fatalf("TryRecv in realm without EP = %v", err)
	}
}

func TestCheckpointBlocksUntilMessage(t *testing.T) {
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")
	done := make(chan string, 1)
	go func() {
		d, _, err := w.Checkpoint()
		if err != nil {
			done <- err.Error()
			return
		}
		done <- string(d.Data)
	}()
	client.Port(svc).Send([]byte("wakeup"), nil)
	if got := <-done; got != "wakeup" {
		t.Fatalf("checkpoint woke with %q", got)
	}
}

func TestEPKernelStateAccounting(t *testing.T) {
	// §6: event process kernel state is 44 bytes vs 320 for a process.
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")
	base := s.MemStats()
	const n = 100
	for i := 0; i < n; i++ {
		client.Port(svc).Send([]byte{byte(i)}, nil)
	}
	for i := 0; i < n; i++ {
		if _, _, err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		w.Yield()
	}
	grown := s.MemStats()
	perEP := float64(grown.KernelBytes-base.KernelBytes) / n
	if perEP < EPKernelBytes || perEP > EPKernelBytes+16 {
		t.Errorf("kernel bytes per dormant EP = %.1f, want ≈%d", perEP, EPKernelBytes)
	}
	if grown.UserPages != base.UserPages {
		t.Errorf("dormant EPs with no writes should hold no user pages (got +%d)",
			grown.UserPages-base.UserPages)
	}
}

func TestManyEventProcesses(t *testing.T) {
	// Thousands of event processes can coexist (§6.2); routing stays
	// correct.
	s := newSys()
	w, svc := workerHarness(t, s)
	client := s.NewProcess("client")
	const n = 2000
	ports := make([]handle.Handle, n)
	for i := 0; i < n; i++ {
		client.Port(svc).Send([]byte(fmt.Sprintf("init-%d", i)), nil)
		_, ep, err := w.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		p := w.Open(nil).Handle()
		w.SetPortLabel(p, label.Empty(label.L3))
		ports[i] = p
		ep.Memory().WriteAt(0, []byte(fmt.Sprintf("state-%06d", i)))
		w.Yield()
	}
	if w.EPCount() != n {
		t.Fatalf("EPCount = %d", w.EPCount())
	}
	// Poke a scattering of sessions and verify isolated state.
	buf := make([]byte, 12)
	for _, i := range []int{0, 1, 999, 1998, 1999} {
		client.Port(ports[i]).Send([]byte("poke"), nil)
		_, ep, err := w.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		ep.Memory().ReadAt(0, buf)
		if string(buf) != fmt.Sprintf("state-%06d", i) {
			t.Fatalf("session %d state = %q", i, buf)
		}
		w.Yield()
	}
}
