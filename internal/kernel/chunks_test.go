package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"asbestos/internal/handle"
	"asbestos/internal/label"
)

// TestConnectionChurnKeepsLabelsCompact is the long-running-server shape:
// two processes that each hold 2000 handles at ⋆ run thousands of
// connection-shaped rounds — open a port, grant it, exchange a message,
// dissociate and drop the privilege. Every round edits one handle of
// 2000-entry labels through With, ⊓, Contaminate and ⊔, so it is where chunk
// sharing could go wrong in two ways: a wrong label, or labels fragmenting
// into ever more, ever smaller chunks. The kernel sees fragmentation as label
// memory (SizeBytes charges every chunk a header and at least one 32-slot
// block); the exact bound on the chunk count, 2·⌈n/64⌉, is the label
// package's own TestConnectionChurnChunkCount.
func TestConnectionChurnKeepsLabelsCompact(t *testing.T) {
	const held, rounds = 2000, 5000
	s := newSys()
	srv, peer := s.NewProcess("srv"), s.NewProcess("peer")
	for i := 0; i < held; i++ {
		srv.NewHandle()
		peer.NewHandle()
	}
	in := peer.Open(nil)
	if err := in.SetLabel(label.Empty(label.L3)); err != nil {
		t.Fatal(err)
	}
	toPeer := srv.Port(in.Handle())

	// Each round must leave all four labels as it found them.
	labels := func() [4]*label.Label {
		return [4]*label.Label{srv.SendLabel(), srv.RecvLabel(), peer.SendLabel(), peer.RecvLabel()}
	}
	var idle [4][]label.Entry
	for i, l := range labels() {
		idle[i] = l.Entries()
	}
	compact := func(when string, round int) {
		t.Helper()
		for i, l := range labels() {
			// What 2·⌈n/64⌉+1 chunks occupy at most: a header and two
			// 32-slot blocks each.
			if limit := 32 + (2*((l.Len()+63)/64)+1)*(8+2*32*8); l.SizeBytes() > limit {
				t.Fatalf("round %d, %s: label %d holds %d entries in %d bytes (limit %d)", round, when, i, l.Len(), l.SizeBytes(), limit)
			}
		}
	}
	recv := func(pt *Port) {
		t.Helper()
		d, err := pt.TryRecv()
		if err != nil || d == nil {
			t.Fatalf("message not delivered: %v, %v", d, err)
		}
		d.Release()
	}

	for round := 0; round < rounds; round++ {
		conn := srv.Open(nil)
		c := conn.Handle()
		// The naive computation of Figure 4's effects on the peer, from
		// the labels as they stand before the send.
		check := round%500 == 0
		var wantS, wantR *label.Simple
		if check {
			es, ds, dr := label.FromLabel(srv.SendLabel()), label.FromLabel(Grant(c)), label.FromLabel(AllowRecv(label.L3, c))
			qs := label.FromLabel(peer.SendLabel()).Glb(ds)
			wantS = qs.Lub(es.Glb(qs.StarRestrict()))
			wantR = label.FromLabel(peer.RecvLabel()).Lub(dr)
		}
		if err := toPeer.Send(nil, &SendOpts{DecontSend: Grant(c), DecontRecv: AllowRecv(label.L3, c)}); err != nil {
			t.Fatal(err)
		}
		recv(in)
		compact("after the grant", round)
		if check && (!label.FromLabel(peer.SendLabel()).Eq(wantS) || !label.FromLabel(peer.RecvLabel()).Eq(wantR)) {
			t.Fatalf("round %d: peer's labels differ from the naive Figure 4 computation", round)
		}
		if peer.SendLabel().Get(c) != label.Star || peer.RecvLabel().Get(c) != label.L3 {
			t.Fatalf("round %d: grant of %v did not arrive", round, c)
		}
		// The peer answers on the connection's port, which only the grant
		// lets it reach.
		if err := peer.Port(c).Send(nil, nil); err != nil {
			t.Fatal(err)
		}
		recv(conn)

		if err := conn.Dissociate(); err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Process{srv, peer} {
			if err := p.DropPrivilege(c, label.L1); err != nil {
				t.Fatal(err)
			}
		}
		peer.LowerRecv(label.Single(label.L3, c, label.DefaultRecv))
		compact("after teardown", round)
		for i, l := range labels() {
			if !slices.Equal(l.Entries(), idle[i]) {
				t.Fatalf("round %d: label %d did not return to its idle value", round, i)
			}
		}
	}
}

// TestGrantOnLargeLabelAllocatesPerChunk pins what applyEffects' QS ⊓ DS
// costs on a large QS: the one chunk the granted handle falls in, the label
// and its chunk list — not the entries. The aligned QS holds 2000 evenly
// spaced handles built at once; the interleaved one is the demux's shape,
// 3000 random handles granted one at a time, whose partly filled chunks
// number more than 64.
func TestGrantOnLargeLabelAllocatesPerChunk(t *testing.T) {
	ents := make([]label.Entry, 2000)
	for i := range ents {
		ents[i] = label.Entry{H: handle.Handle(10 * (i + 1)), L: label.L3}
	}
	r := rand.New(rand.NewSource(1))
	interleaved := label.Empty(label.L1)
	for interleaved.Len() < 3000 {
		interleaved = interleaved.Glb(Grant(handle.Handle(1 + r.Int63n(1<<40))))
	}
	for _, c := range []struct {
		name string
		qs   *label.Label
		h    handle.Handle
	}{
		{"aligned", label.New(label.L1, ents...), 10_005},
		{"interleaved", interleaved, handle.Handle(1 + r.Int63n(1<<40))},
	} {
		ds, n := Grant(c.h), c.qs.Len()
		var out *label.Label
		allocs := testing.AllocsPerRun(100, func() { out = c.qs.Glb(ds) })
		if out.Len() != n+1 || out.Get(c.h) != label.Star {
			t.Fatalf("%s: wrong result: %d entries", c.name, out.Len())
		}
		if allocs > 4 {
			t.Errorf("%s: QS ⊓ Grant(h) on %d entries: %.0f allocations, want ≤ 4 (chunk, its entries, label, chunk list)", c.name, n, allocs)
		}
	}
}
