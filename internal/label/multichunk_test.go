package label

import (
	"math/rand"
	"slices"
	"testing"

	"asbestos/internal/handle"
)

// Multi-chunk labels: everything below draws up to 600 entries over handles
// 1..2000, so labels span many chunks, share chunks with their ancestors and
// differ wildly in size — the cases the chunk rules in merge.go exist for and
// that randLabel (≤ 40 entries, one chunk) never reaches.

const bigHandleRange = 2000

// checkInvariants verifies the representation invariants every label must
// hold, and that a result equal to one of the operation's inputs is that
// input itself.
func checkInvariants(t testing.TB, l *Label, ins ...*Label) {
	t.Helper()
	lv, nent := bit(l.def), 0
	var prev uint64
	for i, c := range l.chunks {
		if len(c.ents) == 0 || len(c.ents) > chunkMax {
			t.Fatalf("chunk %d has %d entries", i, len(c.ents))
		}
		if i > 0 && len(l.chunks[i-1].ents)+len(c.ents) <= chunkMax {
			t.Fatalf("chunks %d and %d (%d + %d entries) would fit in one", i-1, i, len(l.chunks[i-1].ents), len(c.ents))
		}
		var clv levels
		for _, e := range c.ents {
			h, lvl := unpack(e)
			if uint64(h) <= prev {
				t.Fatalf("chunk %d: handle %v not above its predecessor h%d", i, h, prev)
			}
			prev = uint64(h)
			if !lvl.Valid() || lvl == l.def {
				t.Fatalf("chunk %d: entry %v at level %v (default %v)", i, h, lvl, l.def)
			}
			clv |= bit(lvl)
		}
		if c.lv != clv {
			t.Fatalf("chunk %d caches levels %05b, holds %05b", i, c.lv, clv)
		}
		lv |= clv
		nent += len(c.ents)
	}
	if l.lv != lv || l.nent != nent {
		t.Fatalf("label caches levels %05b, %d entries; holds %05b, %d", l.lv, l.nent, lv, nent)
	}
	if nent == 0 && l != Empty(l.def) {
		t.Fatal("empty label is not the shared singleton")
	}
	equal := 0
	for _, in := range ins {
		if l == in {
			return
		}
		if l.def == in.def && slices.Equal(l.Entries(), in.Entries()) {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("result equals an input but is a different label (%d entries)", nent)
	}
}

// bigLabel draws a label of n entries. Levels come in runs, so that some
// chunks are uniform (all ⋆, all 3) and the per-chunk rules fire, and some
// are mixed and must be walked.
func bigLabel(r *rand.Rand, n int) *Label {
	def := Level(r.Intn(numLevels))
	ents := make([]Entry, 0, n)
	lvl, run := Level(r.Intn(numLevels)), 0
	for _, hv := range r.Perm(bigHandleRange)[:n] {
		ents = append(ents, Entry{handle.Handle(hv + 1), Star})
	}
	slices.SortFunc(ents, func(a, b Entry) int { return int(a.H) - int(b.H) })
	for i := range ents {
		if run == 0 {
			lvl, run = Level(r.Intn(numLevels)), 1+r.Intn(1+r.Intn(200))
		}
		ents[i].L = lvl
		run--
	}
	return New(def, ents...)
}

// derive returns l after k single-handle updates: it shares all but a few
// chunk pointers with l.
func derive(r *rand.Rand, l *Label, k int) *Label {
	for ; k > 0; k-- {
		l = l.With(handle.Handle(1+r.Intn(bigHandleRange)), Level(r.Intn(numLevels)))
	}
	return l
}

func simpleAll(a, b *Simple, pred func(x, y Level) bool) bool {
	if !pred(a.Def, b.Def) {
		return false
	}
	for _, h := range a.handles(b) {
		if !pred(a.Get(h), b.Get(h)) {
			return false
		}
	}
	return true
}

func req2(d, s Level) bool { return d >= L3 || s == Star }
func req3(d, s Level) bool { return d == Star || s == Star }
func eq5(q, e Level) Level {
	if q == Star {
		return Star
	}
	return maxLevel(q, e)
}

// crossCheck runs every operation of the algebra on (a, b), compares each
// with the map reference and with the closure oracle, checks the invariants
// of every result, and returns the results so they can be fed back in.
func crossCheck(t testing.TB, a, b *Label) []*Label {
	t.Helper()
	checkInvariants(t, a)
	checkInvariants(t, b)
	sa, sb := FromLabel(a), FromLabel(b)

	for _, c := range []struct {
		name string
		got  bool
		pred func(x, y Level) bool
	}{
		{"Leq", a.Leq(b), func(x, y Level) bool { return x <= y }},
		{"Leq uncached", all(a, b, &relLeq), func(x, y Level) bool { return x <= y }},
		{"Req2", Req2(a, b), req2},
		{"Req3", Req3(a, b), req3},
	} {
		if want := simpleAll(sa, sb, c.pred); c.got != want {
			t.Fatalf("%s = %v, reference %v\na = %v\nb = %v", c.name, c.got, want, a, b)
		}
		if want := PairwiseAll(a, b, c.pred); c.got != want {
			t.Fatalf("%s = %v, closure oracle %v\na = %v\nb = %v", c.name, c.got, want, a, b)
		}
	}
	if a.Eq(b) != sa.Eq(sb) {
		t.Fatalf("Eq = %v, reference %v", a.Eq(b), sa.Eq(sb))
	}
	var above []Entry
	a.EachAboveStar(func(h handle.Handle, l Level) bool {
		above = append(above, Entry{h, l})
		return true
	})
	if want := slices.DeleteFunc(a.Entries(), func(e Entry) bool { return e.L == Star }); !slices.Equal(above, want) {
		t.Fatalf("EachAboveStar visited %d entries, want %d", len(above), len(want))
	}

	var out []*Label
	for _, c := range []struct {
		name   string
		got    *Label
		want   *Simple
		oracle *Label
		ins    []*Label
	}{
		{"Lub", a.Lub(b), sa.Lub(sb), combine(a, b, maxLevel), []*Label{a, b}},
		{"Glb", a.Glb(b), sa.Glb(sb), combine(a, b, minLevel), []*Label{a, b}},
		{"Contaminate", a.Contaminate(b), contaminateSimple(sa, sb), combine(a, b, eq5), []*Label{a, b}},
		{"StarRestrict", a.StarRestrict(), sa.StarRestrict(), nil, []*Label{a}},
	} {
		checkInvariants(t, c.got, c.ins...)
		if !FromLabel(c.got).Eq(c.want) {
			t.Fatalf("%s disagrees with the reference\na = %v\nb = %v\ngot %v", c.name, a, b, c.got)
		}
		if c.oracle != nil && !c.got.Eq(c.oracle) {
			t.Fatalf("%s disagrees with the closure oracle\na = %v\nb = %v\ngot %v", c.name, a, b, c.got)
		}
		out = append(out, c.got)
	}
	return out
}

func TestMultiChunkIndependentPairs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 150; i++ {
		crossCheck(t, bigLabel(r, r.Intn(601)), bigLabel(r, r.Intn(601)))
	}
}

func TestMultiChunkAsymmetricPairs(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 150; i++ {
		small, big := bigLabel(r, 1+r.Intn(2)), bigLabel(r, 500)
		crossCheck(t, small, big)
		crossCheck(t, big, small)
	}
}

func TestMultiChunkSharedAncestor(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		base := bigLabel(r, 100+r.Intn(501))
		a, b := derive(r, base, r.Intn(4)), derive(r, base, 1+r.Intn(4))
		crossCheck(t, a, b)
		crossCheck(t, base, b)
		// The same entries under another default share chunks too.
		c := New(Level(r.Intn(numLevels)), base.Entries()...)
		crossCheck(t, derive(r, c, r.Intn(3)), a)
	}
}

// TestMultiChunkFeedback keeps a pool of labels and feeds every operation's
// results back in as operands, so shared and recut chunks pile up the way
// they do in a long-running kernel.
func TestMultiChunkFeedback(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pool := []*Label{bigLabel(r, 600), bigLabel(r, 300), bigLabel(r, 1)}
	for i := 0; i < 400; i++ {
		a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
		if r.Intn(3) == 0 {
			a = derive(r, a, 1+r.Intn(3))
		}
		for _, l := range crossCheck(t, a, b) {
			if len(pool) < 24 {
				pool = append(pool, l)
			} else {
				pool[r.Intn(len(pool))] = l
			}
		}
	}
}

// TestWithKeepsInvariants drives With through growth, splits, coalescing
// and shrinkage down to empty, comparing with a map at every step.
func TestWithKeepsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	l, ref := Empty(L1), NewSimple(L1)
	step := func(h handle.Handle, lvl Level) {
		next := l.With(h, lvl)
		if lvl == ref.Def {
			delete(ref.M, h)
		} else {
			ref.M[h] = lvl
		}
		checkInvariants(t, next, l)
		if !FromLabel(next).Eq(ref) || next.Get(h) != lvl {
			t.Fatalf("With(%v, %v) went wrong: %v", h, lvl, next)
		}
		l = next
	}
	for i := 0; i < 3000; i++ {
		step(handle.Handle(1+r.Intn(bigHandleRange)), Level(r.Intn(numLevels)))
	}
	for _, hv := range r.Perm(bigHandleRange) {
		step(handle.Handle(hv+1), L1)
	}
	if l != Empty(L1) {
		t.Fatalf("label not empty after clearing every handle: %v", l)
	}
}

// TestConnectionChurnChunkCount replays, on labels alone, what a connection
// does to a server and its peer that each hold 2000 handles at ⋆ (the kernel
// runs the same rounds through real messages in its
// TestConnectionChurnKeepsLabelsCompact): a fresh handle joins the send
// labels, is granted across, and leaves again. Thousands of single-handle
// edits must not fragment the labels: n entries stay in at most 2·⌈n/64⌉
// chunks.
func TestConnectionChurnChunkCount(t *testing.T) {
	const held, rounds = 2000, 5000
	r := rand.New(rand.NewSource(6))
	ents := make([]Entry, held)
	for i := range ents {
		ents[i] = Entry{handle.Handle(1 + r.Int63n(1<<40)), Star}
	}
	srvS := New(DefaultSend, ents...)
	peerS, peerR := derive(r, srvS, 3), Empty(DefaultRecv)
	idle := [3]*Label{srvS, peerS, peerR}
	compact := func(round int, ls ...*Label) {
		t.Helper()
		for i, l := range ls {
			if limit := 2 * cuts(l.nent); len(l.chunks) > limit {
				t.Fatalf("round %d: label %d holds %d entries in %d chunks (limit %d)", round, i, l.nent, len(l.chunks), limit)
			}
			if round%100 == 0 {
				checkInvariants(t, l)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		c := handle.Handle(1 + r.Int63n(1<<40))
		if srvS.Get(c) != DefaultSend {
			continue
		}
		srvS = srvS.With(c, Star)
		peerS = peerS.Glb(New(L3, Entry{H: c, L: Star})).Contaminate(srvS)
		peerR = peerR.Lub(New(Star, Entry{H: c, L: L3}))
		compact(round, srvS, peerS, peerR)
		if peerS.Get(c) != Star || peerR.Get(c) != L3 {
			t.Fatalf("round %d: grant of %v did not arrive", round, c)
		}
		srvS, peerS = srvS.With(c, DefaultSend), peerS.With(c, DefaultSend)
		peerR = peerR.Glb(New(L3, Entry{H: c, L: DefaultRecv}))
		compact(round, srvS, peerS, peerR)
		for i, l := range []*Label{srvS, peerS, peerR} {
			if !l.Eq(idle[i]) {
				t.Fatalf("round %d: label %d did not return to its idle value", round, i)
			}
		}
	}
}

// keepLevels returns the levels that leave every level of a unchanged under
// o — where rule (d) needs no lookup — and the rest, the hot levels.
func keepLevels(a *Label, o *op) (keep, hot []Level) {
	for y := Star; y < numLevels; y++ {
		ok := true
		for x := Star; x < numLevels; x++ {
			ok = ok && (a.lv&bit(x) == 0 || o.tab[x][y] == x)
		}
		if ok {
			keep = append(keep, y)
		} else {
			hot = append(hot, y)
		}
	}
	return keep, hot
}

// checkRuleD checks that merge(a, b, o) takes rule (d) exactly when taken
// says so, then cross-checks every operation on the pair.
func checkRuleD(t *testing.T, a, b *Label, o *op, taken bool) {
	t.Helper()
	if !o.left.holds(a.lv, bit(b.def)) {
		t.Fatalf("pair does not meet rule (d)'s precondition\na = %v\nb = %v", a, b)
	}
	if got := sparse(a, b, o, o.left.row(a.lv)) != nil; got != taken {
		t.Fatalf("rule (d) taken = %v, want %v (a has %d chunks)\na = %v\nb = %v", got, taken, len(a.chunks), a, b)
	}
	crossCheck(t, a, b)
}

// TestRuleDRandomPairs draws pairs that meet rule (d)'s precondition: a
// multi-chunk a, and a b whose default and most entries — spread over a's
// handle range, so the two labels' chunks interleave — leave a unchanged,
// plus up to one more hot entry than a has chunks. Hot entries land on a's
// explicit entries (a change, or a delete when the result is a's default),
// anywhere (mostly an insert), or on a run of neighbouring handles, so that
// one chunk of b is hot throughout. Rule (d) must decide the pair exactly
// when the hot entries are within its bound, and every result must match
// the oracles.
func TestRuleDRandomPairs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 600; i++ {
		o := []*op{opMax, opMin, opEq5}[i%3]
		a := bigLabel(r, 100+r.Intn(501))
		keep, hot := keepLevels(a, o)
		if len(keep) == 0 || len(hot) == 0 || a.nent == 0 {
			continue
		}
		ents := map[handle.Handle]Level{}
		for j := r.Intn(400); j > 0; j-- {
			ents[handle.Handle(1+r.Intn(bigHandleRange))] = keep[r.Intn(len(keep))]
		}
		explicit, run := a.Entries(), handle.Handle(1+r.Intn(bigHandleRange-64))
		for j := []int{1, 2, len(a.chunks) / 2, len(a.chunks), len(a.chunks) + 1}[r.Intn(5)]; j > 0; j-- {
			h := []handle.Handle{explicit[r.Intn(len(explicit))].H, handle.Handle(1 + r.Intn(bigHandleRange)), run + handle.Handle(j)}[r.Intn(3)]
			ents[h] = hot[r.Intn(len(hot))]
		}
		b := New(keep[r.Intn(len(keep))], toEntries(ents)...)
		n := 0
		for _, e := range b.Entries() {
			if slices.Contains(hot, e.L) {
				n++
			}
		}
		checkRuleD(t, a, b, o, n <= len(a.chunks))
	}
}

// toEntries lists a map's entries; New sorts them.
func toEntries(m map[handle.Handle]Level) []Entry {
	out := make([]Entry, 0, len(m))
	for h, l := range m {
		out = append(out, Entry{h, l})
	}
	return out
}

// chunked builds a label with default def whose chunks hold the given
// numbers of entries at level lvl, on handles 10, 20, 30, ….
func chunked(def, lvl Level, sizes ...int) *Label {
	b, h := builder{def: def}, uint64(0)
	for _, n := range sizes {
		ents := make([]uint64, n)
		for i := range ents {
			h += 10
			ents[i] = h<<3 | uint64(lvl)
		}
		b.chunks = append(b.chunks, newChunk(ents))
	}
	return b.finish()
}

// TestRuleDChunkEdges drives rule (d)'s point update through the chunk
// boundaries: a chunk emptied so its neighbours coalesce, a chunk overflowed
// so it splits (by so much that the rebuilt run outgrows the builder's stack
// buffer), a result equal to b, and hot entries one past the bound so the
// walk decides.
func TestRuleDChunkEdges(t *testing.T) {
	hs := func(l *Label, from, to int) []Entry { return l.Entries()[from:to] }
	at := func(lvl Level, es []Entry) []Entry {
		out := make([]Entry, len(es))
		for i, e := range es {
			out[i] = Entry{e.H, lvl}
		}
		return out
	}
	sizes := make([]int, 40) // 32, 33, 32, 33, …
	for i := range sizes {
		sizes[i] = 32 + i%2
	}
	// ⊓ with a label at L1 deletes entries at L2: the 33 entries of chunk 3
	// go, and chunks 2 and 4, 32 entries each, must become one.
	a := chunked(L1, L2, sizes...)
	b := New(L3, at(L1, hs(a, 97, 130))...)
	checkRuleD(t, a, b, opMin, true)
	if got := a.Glb(b); len(got.chunks) != len(a.chunks)-2 {
		t.Fatalf("emptied chunk: %d chunks, want %d", len(got.chunks), len(a.chunks)-2)
	}

	// ⊔ raises 128 default handles inside one full chunk of 64: it splits
	// in three, and its rebuilt run of 192 entries outgrows the builder's
	// stack buffer, as do the result's 142 chunks.
	a = chunked(L0, L2, slices.Repeat([]int{64}, 140)...)
	var ins []Entry
	for _, e := range hs(a, 320, 384) {
		ins = append(ins, Entry{e.H - 5, L3}, Entry{e.H - 3, L3})
	}
	checkRuleD(t, a, New(Star, ins...), opMax, true)

	// Contamination that brings a to exactly b: b is returned.
	b = chunked(L1, Star, 64, 64, 64).With(40, L3).With(1500, L3)
	a = b.With(40, L2).With(1500, L2)
	checkRuleD(t, a, b, opEq5, true)
	if a.Contaminate(b) != b {
		t.Fatal("a result equal to b is not b")
	}

	// One hot entry past the bound, scattered and in one chunk that is hot
	// throughout: the walk decides.
	a = chunked(L1, Star, 64, 64, 64)
	checkRuleD(t, a, New(L1, Entry{5, L3}, Entry{1000, L3}, Entry{1900, L2}, Entry{1915, L2}, Entry{1917, L0}), opEq5, false)
	checkRuleD(t, a, New(L1, at(L3, hs(a, 0, 4))...), opEq5, false)
}

// FuzzLabelOpsMultiChunk interprets its input as a program over a small pool
// of labels — bulk inserts that span chunks, single updates, and every
// binary operation with the result stored back — and cross-checks each step.
func FuzzLabelOpsMultiChunk(f *testing.F) {
	f.Add([]byte{})
	// Two strided 200-entry labels at different levels, then every op.
	f.Add([]byte{1, 0, 0, 1, 200, 3, 0, 0, 1, 1, 0, 2, 200, 2, 4, 1, 2, 0, 1, 2})
	// A big all-⋆ label against a one-entry grant, the kernel's common pair.
	f.Add([]byte{2, 0, 0, 1, 255, 1, 0, 0, 0, 3, 0, 255, 255, 1, 0, 1, 1, 1, 200, 0, 2, 0, 1, 3})
	// Derive by With from a shared ancestor, then merge with it.
	f.Add([]byte{3, 0, 0, 5, 250, 2, 4, 2, 0, 1, 1, 1, 0, 100, 3, 1, 1, 1, 44, 0, 2, 0, 1, 2})
	// Rule (d), the demux's pairs: 250 ⋆ entries (pool 0, default 1) are
	// contaminated by 100 entries at 1 and one at 3 on a handle it holds at
	// ⋆ (pool 3, default ⋆) — a no-op, while ⊔ of the same pair bails to
	// the walk — then granted a handle at its default (pool 2, default 3).
	f.Add([]byte{2, 0, 0, 1, 250, 1, 0, 0, 3, 1, 100, 2, 2, 1, 3, 0, 20, 4, 2, 0, 3, 8, 1, 2, 0, 99, 0, 2, 0, 2, 4})
	// Rule (d)'s point updates: ⊔ deletes one entry (⋆ ⊔ 1 is the default)
	// and inserts another, then ⊓ changes the inserted one from 3 to 2.
	f.Add([]byte{2, 0, 0, 1, 250, 1, 0, 1, 3, 0, 20, 2, 1, 3, 0, 99, 4, 2, 0, 3, 0, 1, 2, 0, 99, 3, 2, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pool := make([]*Label, 4)
		for i := range pool {
			pool[i] = Empty(Level((int(data[0]) + i) % numLevels))
		}
		data = data[1:]
		arg := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		for steps := 0; len(data) > 0 && steps < 64; steps++ {
			switch op, x := arg()%3, arg()%len(pool); op {
			case 0: // bulk: count entries from a start handle at a stride
				start, count, stride, lvl := arg()*8+1, arg(), 1+arg()%8, Level(arg()%numLevels)
				for i := 0; i < count; i++ {
					if h := start + i*stride; h <= bigHandleRange {
						pool[x] = pool[x].With(handle.Handle(h), lvl)
					}
				}
				checkInvariants(t, pool[x])
			case 1: // single update
				h := 1 + (arg()<<8|arg())%bigHandleRange
				pool[x] = pool[x].With(handle.Handle(h), Level(arg()%numLevels))
				checkInvariants(t, pool[x])
			case 2: // every operation on a pair, one result kept
				y, keep := arg()%len(pool), arg()
				res := crossCheck(t, pool[x], pool[y])
				pool[keep%len(pool)] = res[keep/len(pool)%len(res)]
			}
		}
	})
}
