package label

import (
	"fmt"
	"math/rand"
	"testing"

	"asbestos/internal/handle"
)

func h(v uint64) handle.Handle { return handle.Handle(v) }

func TestLevelOrder(t *testing.T) {
	// ⋆ < 0 < 1 < 2 < 3 (paper §5.1).
	order := []Level{Star, L0, L1, L2, L3}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("level order broken between %v and %v", order[i-1], order[i])
		}
	}
}

func TestLevelStrings(t *testing.T) {
	cases := map[Level]string{Star: "*", L0: "0", L1: "1", L2: "2", L3: "3"}
	for lvl, want := range cases {
		if lvl.String() != want {
			t.Errorf("%d.String() = %q, want %q", lvl, lvl.String(), want)
		}
		back, ok := ParseLevel(want)
		if !ok || back != lvl {
			t.Errorf("ParseLevel(%q) = %v, %v", want, back, ok)
		}
	}
	if _, ok := ParseLevel("4"); ok {
		t.Error("ParseLevel accepted 4")
	}
}

func TestEmpty(t *testing.T) {
	for lvl := Star; lvl <= L3; lvl++ {
		e := Empty(lvl)
		if e.Default() != lvl || e.Len() != 0 {
			t.Errorf("Empty(%v) malformed: %v", lvl, e)
		}
		if e.Get(h(99)) != lvl {
			t.Errorf("Empty(%v).Get = %v", lvl, e.Get(h(99)))
		}
		if Empty(lvl) != e {
			t.Error("Empty labels should be shared singletons")
		}
	}
}

func TestNewCanonical(t *testing.T) {
	// Entries at the default level must be elided.
	l := New(L1, Entry{h(5), L1}, Entry{h(7), L3})
	if l.Len() != 1 {
		t.Fatalf("default-level entry not elided: %v", l)
	}
	if l.Get(h(5)) != L1 || l.Get(h(7)) != L3 {
		t.Fatalf("wrong levels: %v", l)
	}
}

func TestNewPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted duplicate handles")
		}
	}()
	New(L1, Entry{h(5), L3}, Entry{h(5), L2})
}

func TestNewPanicsOnInvalidHandle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted handle 0")
		}
	}()
	New(L1, Entry{handle.None, L3})
}

func TestGetWith(t *testing.T) {
	l := Empty(L1)
	l2 := l.With(h(10), L3)
	if l2.Get(h(10)) != L3 || l.Get(h(10)) != L1 {
		t.Fatal("With mutated receiver or failed")
	}
	l3 := l2.With(h(10), L1) // back to default: entry removed
	if l3.Len() != 0 {
		t.Fatalf("With back to default left %d entries", l3.Len())
	}
	if l2.With(h(10), L3) != l2 {
		t.Error("no-op With should return the receiver (sharing)")
	}
}

// A label changed by With answers ⊑ for its new value, never an answer
// computed for the label it came from; the original keeps its answer, and a
// no-op With hands back the receiver itself.
func TestLeqCacheInvalidation(t *testing.T) {
	// Chosen so the cached min/max levels settle neither direction.
	a, b := New(L1, Entry{h(101), L3}), New(L2, Entry{h(101), L3})
	if !a.Leq(b) || !a.Leq(b) {
		t.Fatal("a ⊑ b must hold, and keep holding")
	}
	// h(102) rises to 3, which b (default 2) does not cover.
	if a2 := a.With(h(102), L3); a2.Leq(b) {
		t.Error("a raised at a handle b holds at 2 must not be ⊑ b")
	}
	if !a.Leq(b) {
		t.Error("original comparison changed")
	}
	if a.With(h(101), L3) != a {
		t.Error("no-op With must return the receiver")
	}
}

// Get takes whatever handle a process passes to a system call, including
// ones no label can hold an entry for: those read as the default.
func TestGetOutOfRangeHandle(t *testing.T) {
	labels := []*Label{Empty(L2), New(L1, Entry{h(1), Star}), New(L1, Entry{handle.MaxHandle, L3})}
	big := Empty(L2)
	for i := 1; i <= 3*chunkMax; i++ {
		big = big.With(h(uint64(i)), Star)
	}
	for _, l := range append(labels, big) {
		for _, bad := range []handle.Handle{handle.None, handle.MaxHandle + 1, ^handle.Handle(0)} {
			if got := l.Get(bad); got != l.Default() {
				t.Errorf("%v.Get(%#x) = %v, want the default", l.Len(), uint64(bad), got)
			}
		}
	}
}

func TestWithManySequential(t *testing.T) {
	l := Empty(L1)
	const n = 500
	for i := uint64(1); i <= n; i++ {
		l = l.With(h(i), Level(3+i%2)) // L2 or L3: never the L1 default
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	for i := uint64(1); i <= n; i++ {
		if got, want := l.Get(h(i)), Level(3+i%2); got != want {
			t.Fatalf("Get(%d) = %v, want %v", i, got, want)
		}
	}
	// Entries must come back sorted.
	prev := handle.Handle(0)
	for _, e := range l.Entries() {
		if e.H <= prev {
			t.Fatalf("entries out of order at %v", e.H)
		}
		prev = e.H
	}
}

func TestWithReverseAndRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		want := make(map[handle.Handle]Level)
		l := Empty(L2)
		for i := 0; i < 300; i++ {
			hv := h(uint64(rng.Intn(120) + 1))
			lvl := Level(rng.Intn(5))
			l = l.With(hv, lvl)
			if lvl == L2 {
				delete(want, hv)
			} else {
				want[hv] = lvl
			}
		}
		if l.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", l.Len(), len(want))
		}
		for hv, lvl := range want {
			if l.Get(hv) != lvl {
				t.Fatalf("Get(%v) = %v, want %v", hv, l.Get(hv), lvl)
			}
		}
	}
}

func TestLeqBasics(t *testing.T) {
	a := New(L1, Entry{h(1), L3})
	b := New(L2, Entry{h(1), L3})
	if !a.Leq(b) {
		t.Error("a ⊑ b expected")
	}
	if b.Leq(a) {
		t.Error("b ⊑ a unexpected")
	}
	if !a.Leq(a) {
		t.Error("⊑ must be reflexive")
	}
}

func TestLeqPaperExample(t *testing.T) {
	// Figure 2: V_S = {vT 3, 1} ⊑ U_TR = {uT 3, 2} because vT: 3 > 2? No —
	// wait: V_S(vT)=3 vs U_TR(vT)=2 means NOT ⊑. The paper states V cannot
	// send to UT precisely because V_S(vT) > U_TR(vT).
	uT, vT := h(100), h(101)
	VS := New(L1, Entry{vT, L3})
	UTR := New(L2, Entry{uT, L3})
	if VS.Leq(UTR) {
		t.Error("V_S ⊑ U_TR should fail: V is tainted with vT")
	}
	US := New(L1, Entry{uT, L3})
	if !US.Leq(UTR) {
		t.Error("U_S ⊑ U_TR should hold")
	}
}

func TestLubGlbBasics(t *testing.T) {
	a := New(L1, Entry{h(1), L3}, Entry{h(2), Star})
	b := New(L1, Entry{h(1), L0}, Entry{h(3), L2})
	lub := a.Lub(b)
	if lub.Get(h(1)) != L3 || lub.Get(h(2)) != L1 || lub.Get(h(3)) != L2 {
		t.Errorf("Lub wrong: %v", lub)
	}
	glb := a.Glb(b)
	if glb.Get(h(1)) != L0 || glb.Get(h(2)) != Star || glb.Get(h(3)) != L1 {
		t.Errorf("Glb wrong: %v", glb)
	}
}

func TestLubSharingFastPath(t *testing.T) {
	// If every level of b is ≤ every level of a, a ⊔ b must return a itself
	// (the paper's chunk-sharing optimization).
	a := New(L2, Entry{h(1), L3})
	b := New(L1, Entry{h(2), Star})
	if a.Lub(b) != a {
		t.Error("Lub fast path should share the dominating label")
	}
	if b.Glb(a) != b {
		t.Error("Glb fast path should share the dominated label")
	}
}

func TestStarRestrict(t *testing.T) {
	l := New(L1, Entry{h(1), Star}, Entry{h(2), L3}, Entry{h(3), L0})
	s := l.StarRestrict()
	if s.Get(h(1)) != Star {
		t.Error("star entry must survive")
	}
	if s.Get(h(2)) != L3 || s.Get(h(3)) != L3 || s.Get(h(99)) != L3 {
		t.Error("non-star entries must become 3")
	}
	if s.Default() != L3 {
		t.Error("default must become 3")
	}
	// All-star default.
	all := Empty(Star)
	if got := all.StarRestrict(); got.Default() != Star || got.Len() != 0 {
		t.Errorf("StarRestrict of {⋆} = %v", got)
	}
}

func TestEq(t *testing.T) {
	a := New(L1, Entry{h(1), L3})
	b := Empty(L1).With(h(1), L3)
	if !a.Eq(b) {
		t.Error("structurally equal labels must be Eq")
	}
	if a.Eq(New(L2, Entry{h(1), L3})) {
		t.Error("different defaults must not be Eq")
	}
	if a.Eq(New(L1, Entry{h(1), L2})) {
		t.Error("different levels must not be Eq")
	}
	if a.Eq(Empty(L1)) {
		t.Error("different entry counts must not be Eq")
	}
}

func TestStringParse(t *testing.T) {
	l := New(L1, Entry{h(7), Star}, Entry{h(9), L3})
	s := l.String()
	if s != "{h7 *, h9 3, 1}" {
		t.Errorf("String = %q", s)
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if !back.Eq(l) {
		t.Errorf("Parse round-trip: got %v", back)
	}
	if _, err := Parse("{}"); err == nil {
		t.Error("Parse accepted empty braces")
	}
	if _, err := Parse("nolabel"); err == nil {
		t.Error("Parse accepted garbage")
	}
	if _, err := Parse("{h1 9, 2}"); err == nil {
		t.Error("Parse accepted bad level")
	}
	if l, err := Parse("{2}"); err != nil || !l.Eq(Empty(L2)) {
		t.Errorf("Parse({2}) = %v, %v", l, err)
	}
}

func TestSizeBytes(t *testing.T) {
	// Paper §5.6: "The smallest label is about 300 bytes long, including
	// space for one chunk."
	small := New(L1, Entry{h(1), L3})
	if got := small.SizeBytes(); got < 250 || got > 350 {
		t.Errorf("smallest label SizeBytes = %d, want ≈300", got)
	}
	if Empty(L1).SizeBytes() < 250 {
		t.Errorf("empty label should still reserve one chunk")
	}
	// Size must grow roughly linearly with entries.
	big := Empty(L1)
	for i := uint64(1); i <= 1000; i++ {
		big = big.With(h(i), L3)
	}
	if got := big.SizeBytes(); got < 8000 || got > 16000 {
		t.Errorf("1000-entry label SizeBytes = %d, want ≈8–16KB", got)
	}
}

func TestChunkSplitting(t *testing.T) {
	// More than 64 entries must span multiple chunks and still be correct.
	l := Empty(L1)
	for i := uint64(1); i <= 200; i++ {
		l = l.With(h(i*3), L3)
	}
	if len(l.chunks) < 2 {
		t.Fatalf("expected multiple chunks for 200 entries, got %d", len(l.chunks))
	}
	for _, c := range l.chunks {
		if len(c.ents) > chunkMax {
			t.Fatalf("chunk exceeds max: %d", len(c.ents))
		}
	}
	for i := uint64(1); i <= 200; i++ {
		if l.Get(h(i*3)) != L3 {
			t.Fatalf("lost entry %d after chunk split", i*3)
		}
		if l.Get(h(i*3-1)) != L1 {
			t.Fatalf("phantom entry at %d", i*3-1)
		}
	}
}

func TestPairwiseAll(t *testing.T) {
	// Requirement 2 of Figure 4: DS(h) < 3 ⇒ PS(h) = ⋆.
	uT := h(42)
	DS := New(L3, Entry{uT, Star})
	PSpriv := New(L1, Entry{uT, Star})
	PSplain := Empty(L1)
	req2 := func(ds, ps Level) bool { return ds >= L3 || ps == Star }
	if !PairwiseAll(DS, PSpriv, req2) {
		t.Error("privileged sender should pass requirement 2")
	}
	if PairwiseAll(DS, PSplain, req2) {
		t.Error("unprivileged sender must fail requirement 2")
	}
}

func TestEntriesAndEach(t *testing.T) {
	l := New(L1, Entry{h(3), L3}, Entry{h(1), Star}, Entry{h(2), L0})
	es := l.Entries()
	if len(es) != 3 || es[0].H != h(1) || es[1].H != h(2) || es[2].H != h(3) {
		t.Fatalf("Entries = %v", es)
	}
	count := 0
	l.Each(func(handle.Handle, Level) bool {
		count++
		return count < 2 // early stop
	})
	if count != 2 {
		t.Errorf("Each early stop visited %d", count)
	}
}

func TestMinMaxCache(t *testing.T) {
	l := New(L1, Entry{h(1), Star}, Entry{h(2), L3})
	if l.Min() != Star || l.Max() != L3 {
		t.Errorf("Min/Max = %v/%v", l.Min(), l.Max())
	}
	e := Empty(L2)
	if e.Min() != L2 || e.Max() != L2 {
		t.Errorf("empty Min/Max = %v/%v", e.Min(), e.Max())
	}
}

// --- benchmarks for §5.6 label cost claims ---

func benchLabelPair(n int) (*Label, *Label) {
	a, b := Empty(L1), Empty(L2)
	for i := 0; i < n; i++ {
		hv := h(uint64(i)*2 + 1)
		a = a.With(hv, Level(1+i%3))
		if i%2 == 0 {
			b = b.With(hv, L3)
		} else {
			b = b.With(h(uint64(i)*2+2), L3)
		}
	}
	return a, b
}

func BenchmarkLabelOpsLeq(b *testing.B) {
	for _, n := range []int{1, 16, 256, 4096, 20000} {
		a, c := benchLabelPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Leq(c)
			}
		})
	}
}

func BenchmarkLabelOpsLub(b *testing.B) {
	for _, n := range []int{1, 16, 256, 4096, 20000} {
		a, c := benchLabelPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Lub(c)
			}
		})
	}
}

func BenchmarkLabelOpsGlb(b *testing.B) {
	for _, n := range []int{1, 16, 256, 4096, 20000} {
		a, c := benchLabelPair(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Glb(c)
			}
		})
	}
}

func BenchmarkLabelWith(b *testing.B) {
	a, _ := benchLabelPair(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.With(h(uint64(i%8192)+1), L3)
	}
}

// BenchmarkAblationChunkedVsSimple quantifies the design choice DESIGN.md
// calls out: the §5.6 chunked representation versus a plain map. The
// chunked form wins on the lattice operations that dominate kernel IPC.
func BenchmarkAblationChunkedVsSimple(b *testing.B) {
	for _, n := range []int{64, 1024, 8192} {
		a, c := benchLabelPair(n)
		sa, sc := FromLabel(a), FromLabel(c)
		b.Run(fmt.Sprintf("chunked/Lub/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Lub(c)
			}
		})
		b.Run(fmt.Sprintf("simple/Lub/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sa.Lub(sc)
			}
		})
		b.Run(fmt.Sprintf("chunked/Leq/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.Leq(c)
			}
		})
		b.Run(fmt.Sprintf("simple/Leq/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sa.Leq(sc)
			}
		})
	}
}

// demuxShape builds the labels the OKWS demux merges on every delivery at
// two thousand sessions (Figure 5). qs, its send label, holds ⋆ for 3000
// users' handles and 8 open connections'; es, a netd shard's, holds ⋆ for
// 1150 handles, 500 of them users' also in qs, and level 3 for one handle qs
// holds at ⋆. Handles are random, as the kernel's allocator hands them out,
// so the two labels' chunk boundaries interleave. Both labels grew one handle
// at a time, qs with a connection opening and the oldest closing beside each
// user, so its chunks are as full as a running kernel's: more than 64 of
// them. fresh is a handle neither label holds.
func demuxShape() (qs, es *Label, fresh handle.Handle) {
	r := rand.New(rand.NewSource(1))
	next := func() handle.Handle { return handle.Handle(1 + r.Int63n(1<<40)) }
	var users, conns []handle.Handle
	qs, es = Empty(L1), Empty(L1)
	for len(users) < 3000 {
		users, conns = append(users, next()), append(conns, next())
		qs = qs.With(users[len(users)-1], Star).With(conns[len(conns)-1], Star)
		if len(conns) > 8 {
			qs, conns = qs.With(conns[0], L1), conns[1:]
		}
	}
	for _, h := range users[2500:] {
		es = es.With(h, Star)
	}
	for i := 0; i < 650; i++ {
		es = es.With(next(), Star)
	}
	return qs, es.With(users[0], L3), next()
}

// TestInterleavedUpdatesAllocate pins in allocation counts what the demux's
// per-delivery label updates cost on demuxShape's 3008 entries: a no-op
// Contaminate is the receiver itself and allocates nothing, Req2 of a
// one-handle grant looks the handle up and allocates nothing, and a
// one-handle grant or a With that replaces one chunk allocates that chunk
// with its entries, the label and its chunk list — none of it in proportion
// to the entries.
func TestInterleavedUpdatesAllocate(t *testing.T) {
	qs, es, fresh := demuxShape()
	if qs.Len() != 3008 || es.Len() != 1151 || len(qs.chunks) <= 64 {
		t.Fatalf("shape: %d and %d entries, %d chunks", qs.Len(), es.Len(), len(qs.chunks))
	}
	held := qs.Entries()[1500].H
	grant, hold := New(L3, Entry{H: fresh, L: Star}), New(L3, Entry{H: held, L: Star})
	granted := func(l *Label) bool { return l.Len() == 3009 && l.Get(fresh) == Star }
	var out *Label
	for _, c := range []struct {
		name string
		max  float64
		f    func() *Label
		ok   func(*Label) bool
	}{
		{"no-op Contaminate", 0, func() *Label { return qs.Contaminate(es) }, func(l *Label) bool { return l == qs }},
		{"Req2 of a one-handle grant", 0, func() *Label {
			if Req2(hold, qs) && !Req2(grant, qs) {
				return qs
			}
			return nil
		}, func(l *Label) bool { return l == qs }},
		{"QS ⊓ Grant(h)", 3, func() *Label { return qs.Glb(grant) }, granted},
		{"With", 3, func() *Label { return qs.With(fresh, Star) }, granted},
		{"With dropping ⋆", 3, func() *Label { return qs.With(held, L1) }, func(l *Label) bool { return l.Len() == 3007 && l.Get(held) == L1 }},
	} {
		allocs := testing.AllocsPerRun(100, func() { out = c.f() })
		if out == nil || !c.ok(out) {
			t.Fatalf("%s: wrong result", c.name)
		}
		if allocs > c.max {
			t.Errorf("%s on 3008 entries: %.0f allocations, want ≤ %.0f", c.name, allocs, c.max)
		}
	}
}

// TestSmallLabelsAllocateOnce pins the one-allocation layout of labels of
// at most smallMax entries, however they are built, and the two allocations
// of a one-chunk label with more entries than that: the chunk with its
// entries, and the label with its chunk list.
func TestSmallLabelsAllocateOnce(t *testing.T) {
	one, two := New(L3, Entry{h(7), Star}), New(L1, Entry{h(1), Star}, Entry{h(2), L0})
	three := two.With(h(4), L3)
	var out *Label
	for _, c := range []struct {
		name   string
		allocs float64
		f      func() *Label
	}{
		{"New, one entry", 1, func() *Label { return New(L3, Entry{h(9), Star}) }},
		{"New, three entries", 1, func() *Label { return New(L1, Entry{h(3), L2}, Entry{h(1), Star}, Entry{h(2), L0}) }},
		{"With", 1, func() *Label { return two.With(h(4), L3) }},
		{"Lub", 1, func() *Label { return one.Lub(two) }},
		{"With, a fourth entry", 2, func() *Label { return three.With(h(5), L3) }},
	} {
		if allocs := testing.AllocsPerRun(100, func() { out = c.f() }); allocs != c.allocs {
			t.Errorf("%s: %.0f allocations, want %.0f", c.name, allocs, c.allocs)
		}
		checkInvariants(t, out)
	}
}

// BenchmarkAsymmetric times the pairs the kernel's message path is made of
// when one process holds thousands of handles: the two operands differ
// wildly in size, or are the same label but for one chunk. Each row should
// cost the chunks it touches, not the entries; leq_16x16 guards the other
// end — small labels must not pay for the chunk machinery. The operands
// share their handle sets, so their chunk boundaries align; the
// BenchmarkDemuxLabel family below runs on demuxShape, where they
// interleave.
func BenchmarkAsymmetric(b *testing.B) {
	stars := make([]Entry, 2000)
	clear := make([]Entry, 2000)
	for i := range stars {
		stars[i] = Entry{h(uint64(i)*4 + 4), Star}
		clear[i] = Entry{h(uint64(i)*4 + 4), L3}
	}
	// A server's send label, ⋆ for every user, and a message's ES from a
	// peer holding the same privileges. One handle on each side is off ⋆,
	// where the other side's ⋆ covers it, so that Equation 5 is a no-op
	// only a walk can see.
	qs := New(L1, stars...).With(h(1000), L0)
	es := New(L1, stars...).With(h(7000), L3)
	grant := New(L3, Entry{H: h(4002), L: Star}) // DS granting one fresh handle
	granted := qs.With(h(4002), Star)
	// A receive label cleared for every user, raised for one more by two
	// different messages.
	qr := New(L2, clear...)
	qr1, qr2 := qr.With(h(1002), L3), qr.With(h(7002), L3)
	var small [2]*Label
	for i := range small {
		ents := make([]Entry, 16)
		for j := range ents {
			ents[j] = Entry{h(uint64(j) + 1), []Level{Star, L2, L0, L3}[j%2+2*i]}
		}
		small[i] = New(L1, ents...)
	}
	for _, c := range []struct {
		name string
		f    func() bool
	}{
		{"glb_2000x1", func() bool { return qs.Glb(grant).Len() == 2001 }},
		{"privs_1x2000", func() bool { return Req2(grant, granted) }},
		{"contaminate_noop_2000x2000_allstar", func() bool { return qs.Contaminate(es) == qs }},
		{"lub_2000x2000_shared_but_one", func() bool { return qr1.Lub(qr2).Len() == 2002 }},
		{"leq_16x16", func() bool { return all(small[0], small[1], &relLeq) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !c.f() {
					b.Fatal("wrong result")
				}
			}
		})
	}
}

// The BenchmarkDemuxLabel family times the label operations the OKWS demux
// runs per connection on its send label at two thousand sessions
// (demuxShape): the grant of a connection's handle (QS ⊓ Grant(h)), its drop
// after the handoff (With back to the default), Figure 4's requirement 2 on
// a one-handle grant of a handle the demux holds, and the no-op
// contamination by a netd shard's label. Each should cost the chunk it
// touches, not the 3008 entries.

func BenchmarkDemuxLabelGrant(b *testing.B) {
	qs, _, fresh := demuxShape()
	grant := New(L3, Entry{H: fresh, L: Star})
	b.ReportAllocs()
	for b.Loop() {
		if qs.Glb(grant).Len() != 3009 {
			b.Fatal("wrong result")
		}
	}
}

func BenchmarkDemuxLabelDrop(b *testing.B) {
	qs, _, _ := demuxShape()
	held := qs.Entries()[1500].H
	b.ReportAllocs()
	for b.Loop() {
		if qs.With(held, L1).Len() != 3007 {
			b.Fatal("wrong result")
		}
	}
}

func BenchmarkDemuxLabelReq2(b *testing.B) {
	qs, _, _ := demuxShape()
	grant := New(L3, Entry{H: qs.Entries()[1500].H, L: Star})
	b.ReportAllocs()
	for b.Loop() {
		if !Req2(grant, qs) {
			b.Fatal("wrong result")
		}
	}
}

func BenchmarkDemuxLabelContaminate(b *testing.B) {
	qs, es, _ := demuxShape()
	b.ReportAllocs()
	for b.Loop() {
		if qs.Contaminate(es) != qs {
			b.Fatal("wrong result")
		}
	}
}
