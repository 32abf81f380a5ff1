package evloop

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/kernel"
	"asbestos/internal/label"
	"asbestos/internal/stats"
)

// start runs the group on a goroutine and returns a join function that
// stops it and waits for every loop to exit (after which shard state is
// safe to read).
func start(g *Group) (join func()) {
	done := make(chan struct{})
	go func() {
		g.Run()
		close(done)
	}()
	return func() {
		g.Stop()
		<-done
	}
}

// openTo opens an open-labeled port on s's process and registers h for it.
func openTo(s *Shard, h Handler) *kernel.Port {
	pt := s.Proc().Open(nil)
	if err := pt.SetLabel(label.Empty(label.L3)); err != nil {
		panic(err)
	}
	s.Handle(pt, h)
	return pt
}

// TestDispatchForwardFlushOrdering drives a burst through the full
// pipeline — registered-port dispatch on shard 0, a batched cross-shard
// forward to shard 1, a batched hop to an external collector — and asserts
// per-sender FIFO order survives both Batcher flushes end to end.
func TestDispatchForwardFlushOrdering(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(81))
	g := New(sys, Config{Name: "t", Shards: 2, Category: stats.CatOther})
	s0, s1 := g.Shard(0), g.Shard(1)

	col := sys.NewProcess("collector")
	colPort := col.Open(nil)
	if err := colPort.SetLabel(label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}

	openTo(s0, func(d *kernel.Delivery) {
		// Forward a copy: Add takes ownership of the slice it is given.
		s0.Out().Add(s0.Peer(1).Handle(), append([]byte(nil), d.Data...), nil)
	})
	s1.HandleForward(func(d *kernel.Delivery) {
		s1.Out().Add(colPort.Handle(), append([]byte(nil), d.Data...), nil)
	})
	in0 := s0.ports[len(s0.ports)-1]

	join := start(g)
	defer join()

	const K = 300
	tx := sys.NewProcess("tx")
	out := tx.Port(in0.Handle())
	for i := 0; i < K; i++ {
		var buf [2]byte
		binary.BigEndian.PutUint16(buf[:], uint16(i))
		if err := out.Send(buf[:], nil); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < K; i++ {
		d, err := col.RecvCtx(ctx)
		if err != nil {
			t.Fatalf("collector starved at %d/%d: %v", i, K, err)
		}
		if got := binary.BigEndian.Uint16(d.Data); int(got) != i {
			t.Fatalf("message %d arrived as %d: FIFO lost through the flushes", i, got)
		}
	}
}

// TestFlushBeforeDropAfter pins the Batcher privilege contract the loop
// inherits: a capability a buffered message grants is shed only AFTER the
// flush, so the grant is still legal at enqueue time — and is genuinely
// gone afterwards.
func TestFlushBeforeDropAfter(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(82))
	g := New(sys, Config{Name: "t", Shards: 2, Category: stats.CatOther})
	s0, s1 := g.Shard(0), g.Shard(1)

	var granted atomic.Uint64 // handle granted to shard 1, once delivered
	var arrived atomic.Int64
	openTo(s0, func(d *kernel.Delivery) {
		fresh := s0.Proc().Open(nil)
		h := fresh.Handle()
		s0.Out().Add(s0.Peer(1).Handle(),
			append([]byte(nil), d.Data...),
			&kernel.SendOpts{DecontSend: kernel.Grant(h)})
		s0.Out().DropAfter(h)
		granted.Store(uint64(h))
	})
	s1.HandleForward(func(d *kernel.Delivery) { arrived.Add(1) })
	in0 := s0.ports[len(s0.ports)-1]

	join := start(g)
	tx := sys.NewProcess("tx")
	if err := tx.Port(in0.Handle()).Send([]byte{1}, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for arrived.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("granted forward never arrived: privilege shed before flush?")
		}
		time.Sleep(time.Millisecond)
	}
	join()

	// After the flush the privilege must actually be gone (DropAfter ran).
	h := handle.Handle(granted.Load())
	if lvl := s0.Proc().SendLabel().Get(h); lvl == label.Star {
		t.Fatalf("shard 0 still holds ⋆ for %v after the flush", h)
	}
}

// TestBurstCapBoundsRound pins the one dispatch policy: a backlog deeper
// than BurstCap is dispatched in rounds of exactly BurstCap, each flushed
// before the next begins, and nothing is lost across the rounds.
func TestBurstCapBoundsRound(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(83))
	g := New(sys, Config{Name: "flood", Shards: 1, Category: stats.CatOther})
	s := g.Shard(0)

	col := sys.NewProcess("collector")
	colPort := col.Open(nil)
	if err := colPort.SetLabel(label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	var largest atomic.Int64 // written by the loop goroutine only
	in := openTo(s, func(d *kernel.Delivery) {
		s.Out().Add(colPort.Handle(), []byte{d.Data[0]}, nil)
		if n := int64(s.Out().Len()); n > largest.Load() {
			largest.Store(n)
		}
	})

	const K = 1000
	tx := sys.NewProcess("tx")
	out := tx.Port(in.Handle())
	for i := 0; i < K; i++ {
		if err := out.Send([]byte{byte(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	join := start(g)
	defer join()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < K; i++ {
		if _, err := col.RecvCtx(ctx); err != nil {
			t.Fatalf("collector starved at %d/%d: %v", i, K, err)
		}
	}
	if got := largest.Load(); got != BurstCap {
		t.Fatalf("largest round buffered %d replies, want BurstCap = %d", got, BurstCap)
	}
}

// TestTimerFiresWhileArmed pins the timer path the pending-login deadline
// rides on: an armed shard timer fires on an otherwise idle loop, a
// handler can re-arm itself periodically, and once disarmed the loop
// fires nothing (and blocks with no receive deadline at all).
func TestTimerFiresWhileArmed(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(86))
	g := New(sys, Config{Name: "tick", Shards: 1, Category: stats.CatOther})
	s := g.Shard(0)
	openTo(s, func(d *kernel.Delivery) {})

	var ticks atomic.Int64
	var tm *Timer
	tm = s.Timer(func(now time.Time) {
		if ticks.Add(1) < 3 {
			tm.Arm(now.Add(2 * time.Millisecond))
		}
	})
	tm.Arm(time.Now().Add(2 * time.Millisecond))

	join := start(g)
	defer join()
	deadline := time.Now().Add(10 * time.Second)
	for ticks.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("armed timer never fired (%d)", ticks.Load())
		}
		time.Sleep(time.Millisecond)
	}
	// Disarmed: no further fires.
	settled := ticks.Load()
	time.Sleep(20 * time.Millisecond)
	if got := ticks.Load(); got != settled {
		t.Fatalf("disarmed timer kept firing: %d → %d", settled, got)
	}
}

// TestPanickingHandlerDoesNotKillShard pins the dispatch recovery rule:
// a handler that panics on a poisoned message is counted, and the loop
// keeps draining subsequent traffic.
func TestPanickingHandlerDoesNotKillShard(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(88))
	g := New(sys, Config{Name: "panicky", Shards: 1, Category: stats.CatOther})
	s := g.Shard(0)

	var ok atomic.Int64
	in := openTo(s, func(d *kernel.Delivery) {
		if len(d.Data) > 0 && d.Data[0] == 0xff {
			panic("poisoned message")
		}
		ok.Add(1)
	})

	join := start(g)
	defer join()

	tx := sys.NewProcess("tx")
	out := tx.Port(in.Handle())
	const K = 20
	for i := 0; i < K; i++ {
		b := byte(i)
		if i%4 == 0 {
			b = 0xff
		}
		if err := out.Send([]byte{b}, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for ok.Load() < K-K/4 {
		if time.Now().After(deadline) {
			t.Fatalf("shard died after a panic: %d/%d clean messages handled",
				ok.Load(), K-K/4)
		}
		time.Sleep(time.Millisecond)
	}
	if got := g.HandlerPanics(); got != K/4 {
		t.Fatalf("HandlerPanics = %d, want %d", got, K/4)
	}
}

// TestHandlerMayRetainPayload pins that a delivery's bytes are the
// handler's own: a handler keeps every d.Data it is given, and the sends it
// makes afterwards (each copying a payload of the same length) never write
// into a kept slice.
func TestHandlerMayRetainPayload(t *testing.T) {
	sys := kernel.NewSystem(kernel.WithSeed(89))
	g := New(sys, Config{Name: "retain", Shards: 1, Category: stats.CatOther})
	s := g.Shard(0)
	own := s.Proc().Open(nil)
	if err := own.SetLabel(label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	self := s.Proc().Port(own.Handle())

	const K = 100
	var kept [][]byte
	handled := make(chan struct{}, K)
	in := openTo(s, func(d *kernel.Delivery) {
		kept = append(kept, d.Data)
		if err := self.Send(bytes.Repeat([]byte("x"), len(d.Data)), nil); err != nil {
			t.Error(err)
		}
		for range own.Drain() {
		}
		handled <- struct{}{}
	})
	join := start(g)
	defer join()
	payload := func(i int) string { return fmt.Sprintf("payload-%03d", i) }
	out := sys.NewProcess("tx").Port(in.Handle())
	for i := 0; i < K; i++ {
		if err := out.Send([]byte(payload(i)), nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-handled:
		case <-time.After(10 * time.Second):
			t.Fatalf("delivery %d never handled", i)
		}
	}
	bad := 0
	for i, b := range kept {
		if string(b) != payload(i) {
			bad++
		}
	}
	if len(kept) != K || bad != 0 {
		t.Fatalf("%d of %d kept payloads changed after their handler returned", bad, len(kept))
	}
}

// TestEvloopStress hammers a 4-shard group from 8 producers, with every
// handler forwarding a slice of its traffic to a sibling shard — the
// race-detector workout for the shared runtime.
func TestEvloopStress(t *testing.T) {
	const (
		shards    = 4
		producers = 8
		perProd   = 500
	)
	sys := kernel.NewSystem(kernel.WithSeed(87))
	g := New(sys, Config{Name: "stress", Shards: shards, Category: stats.CatOther})

	var direct, forwarded atomic.Int64
	ins := make([]*kernel.Port, shards)
	for i := 0; i < shards; i++ {
		s := g.Shard(i)
		sib := (i + 1) % shards
		ins[i] = openTo(s, func(d *kernel.Delivery) {
			direct.Add(1)
			if d.Data[0]%4 == 0 {
				s.Out().Add(s.Peer(sib).Handle(), append([]byte(nil), d.Data...), nil)
			}
		})
		s.HandleForward(func(d *kernel.Delivery) { forwarded.Add(1) })
	}
	join := start(g)
	defer join()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tx := sys.NewProcess(fmt.Sprintf("tx%d", p))
			outs := make([]*kernel.Port, shards)
			for i := range outs {
				outs[i] = tx.Port(ins[i].Handle())
			}
			for i := 0; i < perProd; i++ {
				if err := outs[i%shards].Send([]byte{byte(i)}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	want := int64(producers * perProd)
	wantFwd := int64(producers) * int64(perProd/4)
	deadline := time.Now().Add(30 * time.Second)
	for direct.Load() < want || forwarded.Load() < wantFwd {
		if time.Now().After(deadline) {
			t.Fatalf("processed %d/%d direct, %d/%d forwarded",
				direct.Load(), want, forwarded.Load(), wantFwd)
		}
		time.Sleep(time.Millisecond)
	}
}
