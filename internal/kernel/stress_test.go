package kernel

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asbestos/internal/handle"
	"asbestos/internal/label"
)

// The stress tests hammer the sharded kernel from many goroutines and
// assert the two properties that must survive any interleaving:
//
//  1. Safety (Figure 4): no delivery violates the receiver-side checks
//     against the receiver's labels at the instant of receive — in
//     particular, a message carrying taint {hT 3} is never delivered to a
//     receiver whose receive label caps hT at 2.
//  2. Exactly-once dequeue: no message is ever delivered twice.
//
// Plus conservation as a liveness check: every send is eventually either
// delivered or counted in the kernel drop counter.

// stressMsg tags a payload with a globally unique id and its taint class.
func stressMsg(sender, seq uint32, tainted bool) []byte {
	b := make([]byte, 9)
	binary.BigEndian.PutUint32(b[0:], sender)
	binary.BigEndian.PutUint32(b[4:], seq)
	if tainted {
		b[8] = 1
	}
	return b
}

func parseStressMsg(b []byte) (id uint64, tainted bool, ok bool) {
	if len(b) != 9 {
		return 0, false, false
	}
	return uint64(binary.BigEndian.Uint32(b[0:]))<<32 | uint64(binary.BigEndian.Uint32(b[4:])),
		b[8] == 1, true
}

func TestStressSendersReceivers(t *testing.T) {
	const (
		nSenders      = 8
		nReceivers    = 4 // half low-clearance, half high-clearance
		portsPerRecv  = 3
		msgsPerSender = 400
	)

	s := NewSystem(WithSeed(7))
	baseDrops := s.Drops()

	// root owns the taint compartment hT and forks the high receivers, which
	// inherit hT ⋆ and may therefore raise their receive labels to {hT 3}.
	root := s.NewProcess("root")
	hT := root.NewHandle()

	type recvState struct {
		proc  *Process
		high  bool
		ports []handle.Handle
	}
	var receivers []*recvState
	var allPorts []handle.Handle
	for i := 0; i < nReceivers; i++ {
		high := i%2 == 0
		var proc *Process
		if high {
			proc = root.Fork(fmt.Sprintf("recv-high-%d", i))
			if err := proc.RaiseRecv(hT, label.L3); err != nil {
				t.Fatalf("RaiseRecv: %v", err)
			}
		} else {
			proc = s.NewProcess(fmt.Sprintf("recv-low-%d", i))
		}
		r := &recvState{proc: proc, high: high}
		for j := 0; j < portsPerRecv; j++ {
			port := proc.Open(nil).Handle()
			if err := proc.SetPortLabel(port, label.Empty(label.L3)); err != nil {
				t.Fatalf("SetPortLabel: %v", err)
			}
			r.ports = append(r.ports, port)
			allPorts = append(allPorts, port)
		}
		receivers = append(receivers, r)
	}

	// Receivers drain until their process is killed, recording deliveries
	// privately (merged and checked after the run).
	var delivered atomic.Uint64
	type rx struct {
		id      uint64
		tainted bool
		high    bool
	}
	got := make([][]rx, len(receivers))
	var wg sync.WaitGroup
	for ri, r := range receivers {
		wg.Add(1)
		go func(ri int, r *recvState) {
			defer wg.Done()
			for {
				d, err := r.proc.RecvCtx(context.Background())
				if err != nil {
					return
				}
				id, tainted, ok := parseStressMsg(d.Data)
				if !ok {
					t.Errorf("receiver %d: malformed payload %x", ri, d.Data)
					return
				}
				got[ri] = append(got[ri], rx{id: id, tainted: tainted, high: r.high})
				delivered.Add(1)
			}
		}(ri, r)
	}

	// Port-label churn: one goroutine keeps flipping a high receiver's port
	// between wide open and capping hT at 2. Both states are legal; the
	// kernel must apply whichever label is current at the instant of each
	// receive. (Receiver-side check 1 uses pR, so while capped even the
	// high receiver must drop tainted messages — a drop, never a violation.)
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		capped := label.New(label.L3, label.Entry{H: hT, L: label.L2})
		open := label.Empty(label.L3)
		target := receivers[0]
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			default:
			}
			l := open
			if i%2 == 1 {
				l = capped
			}
			target.proc.SetPortLabel(target.ports[0], l)
		}
	}()

	// Senders: odd ones contaminate themselves with {hT 3} first, then all
	// spray messages round-robin over every port.
	for si := 0; si < nSenders; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			proc := s.NewProcess(fmt.Sprintf("send-%d", si))
			tainted := si%2 == 1
			if tainted {
				proc.ContaminateSelf(Taint(label.L3, hT))
				if got := proc.SendLabel().Get(hT); got != label.L3 {
					t.Errorf("sender %d: taint not applied, hT = %v", si, got)
					return
				}
			}
			for seq := 0; seq < msgsPerSender; seq++ {
				port := allPorts[(si+seq)%len(allPorts)]
				if err := proc.Port(port).Send(stressMsg(uint32(si), uint32(seq), tainted), nil); err != nil {
					t.Errorf("sender %d: send: %v", si, err)
					return
				}
			}
			proc.Exit()
		}(si)
	}

	// Conservation: every sent message ends up delivered or dropped (failed
	// receiver-side checks; queues are sized so overflow cannot occur).
	const totalSent = nSenders * msgsPerSender
	deadline := time.Now().Add(30 * time.Second)
	for {
		settled := delivered.Load() + (s.Drops() - baseDrops)
		if settled == totalSent {
			break
		}
		if settled > totalSent {
			t.Fatalf("settled %d messages out of %d sent — double accounting", settled, totalSent)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: settled %d of %d (delivered %d, dropped %d)",
				settled, totalSent, delivered.Load(), s.Drops()-baseDrops)
		}
		time.Sleep(time.Millisecond)
	}
	close(churnStop)
	churnWG.Wait()
	for _, r := range receivers {
		r.proc.Exit()
	}
	wg.Wait()

	// Safety and exactly-once over the merged delivery log.
	seen := make(map[uint64]bool, totalSent)
	var cleanLow, cleanHigh, taintedHigh int
	for _, log := range got {
		for _, d := range log {
			if seen[d.id] {
				t.Fatalf("message %x delivered twice", d.id)
			}
			seen[d.id] = true
			switch {
			case d.tainted && !d.high:
				t.Fatalf("Figure 4 violation: tainted message %x delivered to low-clearance receiver", d.id)
			case d.tainted:
				taintedHigh++
			case d.high:
				cleanHigh++
			default:
				cleanLow++
			}
		}
	}
	// The run must actually have exercised all three legal delivery paths.
	if cleanLow == 0 || cleanHigh == 0 || taintedHigh == 0 {
		t.Fatalf("workload did not cover all paths: cleanLow=%d cleanHigh=%d taintedHigh=%d",
			cleanLow, cleanHigh, taintedHigh)
	}
	// Every clean message must have been delivered: clean senders' labels
	// pass every receiver's checks, and the only churned port label still
	// admits them.
	if want := (nSenders / 2) * msgsPerSender; cleanLow+cleanHigh != want {
		t.Fatalf("clean deliveries = %d, want %d", cleanLow+cleanHigh, want)
	}
}

// TestStressPortChurn hammers the sharded handle table: goroutines create
// ports, open them, send to them, dissociate them and exit whole processes
// while senders race against the teardown through endpoints that cached
// the port's vnode. The kernel must stay consistent (no deadlock, no
// panic, the handle table empty once every process has exited) with every
// drop accounted.
func TestStressPortChurn(t *testing.T) {
	const (
		nChurners = 6
		rounds    = 150
	)
	s := NewSystem(WithSeed(11))
	var wg sync.WaitGroup
	var sent, deliveredOrDropped atomic.Uint64

	for ci := 0; ci < nChurners; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				owner := s.NewProcess(fmt.Sprintf("churn-%d-%d", ci, r))
				port := owner.Open(nil).Handle()
				owner.SetPortLabel(port, label.Empty(label.L3))
				peer := s.NewProcess(fmt.Sprintf("peer-%d-%d", ci, r))
				for k := 0; k < 4; k++ {
					if err := peer.Port(port).Send([]byte{byte(k)}, nil); err != nil {
						t.Errorf("send: %v", err)
					}
					sent.Add(1)
				}
				if r%3 == 0 {
					// Tear down with messages still queued, while a cached
					// endpoint keeps sending from another goroutine: every
					// message must be counted as a drop by Exit, by the
					// dead-port scan, or at send.
					out := peer.Port(port)
					racer := make(chan struct{})
					go func() {
						defer close(racer)
						for k := 0; k < 4; k++ {
							if err := out.Send([]byte{byte(k)}, nil); err != nil {
								t.Errorf("racing send: %v", err)
							}
							sent.Add(1)
						}
					}()
					owner.Dissociate(port)
					<-racer
				} else {
					for k := 0; k < 4; k++ {
						d, err := owner.TryRecv()
						if err != nil {
							t.Errorf("recv: %v", err)
							break
						}
						if d == nil {
							break
						}
						deliveredOrDropped.Add(1)
					}
				}
				peer.Exit()
				owner.Exit()
			}
		}(ci)
	}
	wg.Wait()

	// Everything must be accounted: each sent message was either received
	// (counted above) or dropped by dissociation/exit (kernel counter).
	if got := deliveredOrDropped.Load() + s.Drops(); got != sent.Load() {
		t.Fatalf("accounted %d of %d messages", got, sent.Load())
	}
	if s.Processes() != 0 {
		t.Fatalf("%d processes leaked", s.Processes())
	}
	if s.Handles() != 0 {
		t.Fatalf("%d handles outlived their ports", s.Handles())
	}
}
