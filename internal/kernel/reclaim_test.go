package kernel

import (
	"testing"

	"asbestos/internal/label"
)

// TestDeadPortReclaimUnobservable pins the four ways a port dies —
// Dissociate, EPExit, EPReap and Exit — against the one rule they share: a
// dead port leaves the handle table, and no sender can tell. For each:
//
//   - a message queued before the death is dropped and counted, under
//     "dead" when the owner next receives, or under the owner's class when
//     the owner itself exits;
//   - afterwards a send through an endpoint that cached the vnode, and one
//     through a fresh Process.Port, each return nil and count one "dead"
//     drop;
//   - Sys.Handles() is back at its value before the dying port was opened.
func TestDeadPortReclaimUnobservable(t *testing.T) {
	// openDying opens an open-labelled port in w's current context and
	// returns tx's endpoint to it with one message queued through it, so
	// the endpoint has resolved and cached the vnode.
	openDying := func(t *testing.T, w, tx *Process) *Port {
		t.Helper()
		pt := w.Open(nil)
		if err := pt.SetLabel(label.Empty(label.L3)); err != nil {
			t.Fatal(err)
		}
		out := tx.Port(pt.Handle())
		if err := out.Send([]byte("queued"), nil); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// enterEP moves w into a fresh event process through its service port.
	enterEP := func(t *testing.T, w, tx *Process, svc *Port) {
		t.Helper()
		if err := tx.Port(svc.Handle()).Send([]byte("go"), nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// checkpointPast drives w's next Checkpoint with a fresh base-port
	// message, so the scan meets (and drops) whatever was queued ahead.
	checkpointPast := func(t *testing.T, w, tx *Process, svc *Port) {
		t.Helper()
		if err := tx.Port(svc.Handle()).Send([]byte("fresh"), nil); err != nil {
			t.Fatal(err)
		}
		d, _, err := w.Checkpoint()
		if err != nil || string(d.Data) != "fresh" {
			t.Fatalf("checkpoint after the death = %v, %v", d, err)
		}
		w.Yield()
	}

	cases := []struct {
		name string
		// run opens the dying ports in a fresh worker, records the handle
		// count before the first of them, kills them, and lets the owner
		// meet the queued messages. It returns the baseline, tx's cached
		// endpoints and the drop class the queued messages must land in.
		run func(t *testing.T, s *System, w, tx *Process, svc *Port) (int, []*Port, string)
	}{
		{"Dissociate", func(t *testing.T, s *System, w, tx *Process, _ *Port) (int, []*Port, string) {
			base := s.Handles()
			out := openDying(t, w, tx)
			if err := w.Dissociate(out.Handle()); err != nil {
				t.Fatal(err)
			}
			if d, err := w.TryRecv(); d != nil || err != nil {
				t.Fatalf("receive after Dissociate = %v, %v", d, err)
			}
			return base, []*Port{out}, dropClassDead
		}},
		{"EPExit", func(t *testing.T, s *System, w, tx *Process, svc *Port) (int, []*Port, string) {
			enterEP(t, w, tx, svc)
			base := s.Handles()
			out := openDying(t, w, tx)
			if err := w.EPExit(); err != nil {
				t.Fatal(err)
			}
			checkpointPast(t, w, tx, svc)
			return base, []*Port{out}, dropClassDead
		}},
		{"EPReap", func(t *testing.T, s *System, w, tx *Process, svc *Port) (int, []*Port, string) {
			enterEP(t, w, tx, svc)
			base := s.Handles()
			out := openDying(t, w, tx)
			id := w.Current().ID()
			w.Yield()
			if !w.EPReap(id) {
				t.Fatal("EPReap freed nothing")
			}
			checkpointPast(t, w, tx, svc)
			return base, []*Port{out}, dropClassDead
		}},
		{"Exit", func(t *testing.T, s *System, w, tx *Process, svc *Port) (int, []*Port, string) {
			// Exit kills the base context's ports and every event
			// process's: the service port and one EP-owned port here.
			base := s.Handles() - 1 // the service port dies too
			outs := []*Port{tx.Port(svc.Handle())}
			enterEP(t, w, tx, svc)
			outs = append(outs, openDying(t, w, tx))
			w.Yield()
			if err := outs[0].Send([]byte("queued"), nil); err != nil {
				t.Fatal(err)
			}
			w.Exit()
			return base, outs, portClass(w.Name())
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSystem(WithSeed(35))
			w := s.NewProcess("worker")
			svc := w.Open(nil)
			if err := svc.SetLabel(label.Empty(label.L3)); err != nil {
				t.Fatal(err)
			}
			tx := s.NewProcess("tx")

			drops, byClass := s.Drops(), s.DropStats()
			base, outs, class := tc.run(t, s, w, tx, svc)
			if got := s.Drops() - drops; got != uint64(len(outs)) {
				t.Errorf("Drops rose by %d across the death, want %d queued", got, len(outs))
			}
			if got := s.DropStats()[class] - byClass[class]; got != uint64(len(outs)) {
				t.Errorf("DropStats()[%q] rose by %d, want %d queued", class, got, len(outs))
			}

			for _, out := range outs {
				if out.vn.Load() == nil {
					t.Fatal("endpoint never cached the vnode: the cached path is untested")
				}
				fresh := tx.Port(out.Handle())
				for _, via := range []struct {
					name string
					pt   *Port
				}{{"cached", out}, {"fresh", fresh}} {
					drops, dead := s.Drops(), s.DropStats()[dropClassDead]
					if err := via.pt.Send([]byte("late"), nil); err != nil {
						t.Fatalf("%s send to a dead port = %v, want nil", via.name, err)
					}
					if s.Drops()-drops != 1 || s.DropStats()[dropClassDead]-dead != 1 {
						t.Errorf("%s send to a dead port: Drops +%d, dead +%d; want +1, +1",
							via.name, s.Drops()-drops, s.DropStats()[dropClassDead]-dead)
					}
				}
			}
			if got := s.Handles(); got != base {
				t.Errorf("Handles() = %d after the death, want %d as before the port opened", got, base)
			}
		})
	}
}
