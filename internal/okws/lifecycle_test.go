package okws

import (
	"runtime"
	"testing"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/httpmsg"
	"asbestos/internal/kernel"
	"asbestos/internal/workload"
)

// The Run/Stop lifecycle contract: service loops shut down because their
// context is cancelled — Process.Exit releases kernel state but is no
// longer what unblocks a parked receiver — and a stopped stack leaves no
// goroutines behind.

// TestServerStopReleasesGoroutines launches the full Figure 1 stack,
// serves traffic, stops it, and requires the goroutine count to return to
// its pre-launch level: no event loop may survive Stop.
func TestServerStopReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := Launch(Config{
		Seed: 77,
		Services: []Service{
			{Name: "echo", Handler: func(c *Ctx, req *httpmsg.Request) *httpmsg.Response {
				return &httpmsg.Response{Status: 200, Body: []byte("ok")}
			}, Replicas: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddUser("u", "p", "1"); err != nil {
		t.Fatal(err)
	}
	resp, err := workload.Get(srv.Network(), 80, "u", "p", "/echo")
	if err != nil || resp.Status != 200 {
		t.Fatalf("request failed: %+v %v", resp, err)
	}
	if runtime.NumGoroutine() <= before {
		t.Fatal("launch started no goroutines — the test is vacuous")
	}

	srv.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // finalize any parked-timer goroutines promptly
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Stop: %d > %d\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDemuxStopsViaContextAlone cancels only the demux's lifecycle context
// — no Process.Exit — and requires Run (all shard loops) to return while
// the processes stay alive: cancellation, not exit, is the unblocking
// mechanism.
func TestDemuxStopsViaContextAlone(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(78))
	dm := newDemux(sys, 1<<40, []handle.Handle{1 << 41}, 2, 0, 0, 0, 0) // dangling service handles: never used; 2 shards
	done := make(chan struct{})
	go func() {
		dm.Run()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	dm.g.Cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("demux loop did not exit on context cancel")
	}
	for _, sh := range dm.shards {
		if _, err := sh.proc.TryRecv(); err != nil {
			t.Fatalf("demux shard %d should still be alive after cancel: %v", sh.idx, err)
		}
	}
}

// TestWorkerStopsViaContextAlone is the same contract for the
// Checkpoint-based worker loop.
func TestWorkerStopsViaContextAlone(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(79))
	w := newWorker(sys, "t", func(c *Ctx, req *httpmsg.Request) *httpmsg.Response { return nil })
	done := make(chan struct{})
	go func() {
		w.Run()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	w.cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("worker loop did not exit on context cancel")
	}
	if w.proc.EPCount() != 0 {
		t.Fatal("no event process should exist")
	}
}

// TestIdleSweepAfterStop pins the sweep–Stop race: the idle sweep runs on
// a timer goroutine, so it can run after Stop has stopped and cleared
// epSweep. It must then return at once, not re-arm the cleared timer.
func TestIdleSweepAfterStop(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(80))
	w := newWorker(sys, "t", func(c *Ctx, req *httpmsg.Request) *httpmsg.Response { return nil })
	w.epTTL = time.Hour
	w.touchEP(w.basePort.Handle(), 1)
	w.Stop()
	w.sweepIdleEPs()
	if w.epSweep != nil {
		t.Fatal("a sweep after Stop re-armed the idle timer")
	}
}
