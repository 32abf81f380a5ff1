package label

import "slices"

// This file is the core of the label algebra: one walk that advances two
// labels chunk by chunk (walker), the two consumers built on it — all, for
// relations, and merge, for pointwise operators — and the builder that
// assembles merge's result from reused input chunks and rebuilt runs.
//
// Everything a consumer needs to decide a whole chunk in O(1) is at hand
// without walking it: its pointer, its first and last handle, and the cached
// set of levels its entries take (from which min and max follow). The three
// rules:
//
//	(a) same chunk: both labels hold the same chunk pointer at this
//	    position. A relation that holds on the diagonal holds here; an
//	    idempotent operator passes the chunk through.
//	(b) one-sided: the other label has no explicit entry inside this chunk's
//	    handle span, so every entry pairs with the other label's default. If
//	    the relation holds — or the operator is the identity — for every
//	    level in the chunk against that default, skip it / pass it through
//	    by pointer.
//	(c) rectangle: both labels have entries in the span. If the relation
//	    holds — or the operator returns one side — for every pair in
//	    (levels of ca ∪ {a.def}) × (levels of cb ∪ {b.def}), skip both sides
//	    to the smaller of the two chunks' last handles.
//
// Only where no rule applies does a consumer descend to entries, and then
// only for that span. But each consumer first tries a rule with no walk,
// which looks the other label's few explicit entries up instead:
//
//	(d) sparse, for merge: if b's default leaves a unchanged, a is looked
//	    up only at b's entries whose level can change it, and the changes
//	    are applied as point updates (update) that cut no chunk of a where
//	    b's fall.
//	(e) lookup, for all: if every level of one label satisfies the relation
//	    against the other's default, only the first label's explicit
//	    entries can fail, and each is looked up in the other with Get.
//
// Both give up past one lookup per chunk of the looked-up label, where the
// walk is cheaper. A single point update — With, and rule (d) with one
// change — replaces one chunk: when the rebuilt chunk is neither empty nor
// over chunkMax, still obeys the size invariant against both neighbours, and
// keeps every level the old one took, the chunk list is copied with that one
// pointer swapped, and the label's cached levels and count follow from the
// receiver's. Anything else goes through the builder, which recuts the
// neighbourhood.

// levels is a set of levels, bit l set when level l is a member.
type levels = uint8

func bit(l Level) levels { return 1 << l }

// rel is a relation on levels: bit y of r[x] is set when it holds for (x, y).
type rel [numLevels]levels

func newRel(f func(x, y Level) bool) (r rel) {
	for x := Star; x < numLevels; x++ {
		for y := Star; y < numLevels; y++ {
			if f(x, y) {
				r[x] |= bit(y)
			}
		}
	}
	return r
}

// holds reports whether r holds for every pair in xs × ys.
func (r *rel) holds(xs, ys levels) bool { return r.row(xs)&ys == ys }

// row returns the levels y for which r holds for (x, y) for every x in xs.
func (r *rel) row(xs levels) levels {
	ys := levels(1<<numLevels - 1)
	for x := Star; x < numLevels; x++ {
		if xs&bit(x) != 0 {
			ys &= r[x]
		}
	}
	return ys
}

// col returns the levels x for which r holds for (x, y) for every y in ys.
func (r *rel) col(ys levels) (xs levels) {
	for x := Star; x < numLevels; x++ {
		if r[x]&ys == ys {
			xs |= bit(x)
		}
	}
	return xs
}

// diag reports whether r holds for (x, x) for every x in xs.
func (r *rel) diag(xs levels) bool {
	for x := Star; x < numLevels; x++ {
		if xs&bit(x) != 0 && r[x]&bit(x) == 0 {
			return false
		}
	}
	return true
}

// op is a pointwise operator on levels, with the relations that say where
// it returns its left or its right argument unchanged and the set of levels
// on which it is idempotent.
type op struct {
	tab         [numLevels][numLevels]Level
	left, right rel
	idem        levels
}

func newOp(f func(x, y Level) Level) *op {
	o := &op{
		left:  newRel(func(x, y Level) bool { return f(x, y) == x }),
		right: newRel(func(x, y Level) bool { return f(x, y) == y }),
	}
	for x := Star; x < numLevels; x++ {
		for y := Star; y < numLevels; y++ {
			o.tab[x][y] = f(x, y)
		}
		if f(x, x) == x {
			o.idem |= bit(x)
		}
	}
	return o
}

var (
	relLeq = newRel(func(x, y Level) bool { return x <= y })
	// Figure 4 requirement 2, DS(h) < 3 ⇒ PS(h) = ⋆.
	relReq2 = newRel(func(d, s Level) bool { return d >= L3 || s == Star })
	// Figure 4 requirement 3, DR(h) > ⋆ ⇒ PS(h) = ⋆.
	relReq3 = newRel(func(d, s Level) bool { return d == Star || s == Star })

	opMax = newOp(maxLevel)
	opMin = newOp(minLevel)
	// Equation 5, QS ⊔ (ES ⊓ QS⋆) pointwise: a handle held at ⋆ keeps its
	// privilege, anything else takes the max. opEq5.left is "Equation 5 is
	// a no-op here".
	opEq5 = newOp(func(q, e Level) Level {
		if q == Star {
			return Star
		}
		return maxLevel(q, e)
	})
	// L⋆ as an operator that ignores its right argument.
	opStar = newOp(func(x, _ Level) Level { return starProject(x) })
)

// walker advances two chunk lists in handle order. Each step yields the
// explicit entries both labels have inside one handle interval; intervals
// end where a chunk ends, so a chunk is cut only where the other label's
// chunk boundary falls inside it.
type walker struct {
	a, b   []*chunk
	ia, ib int // next chunk on each side
	oa, ob int // entries of that chunk already consumed
}

// seg is one step of the walk. ca (cb) is nil when a (b) has no explicit
// entry in the interval; otherwise ea (eb) are its entries there, a suffix
// or the whole of ca.ents (cb.ents).
type seg struct {
	ca, cb *chunk
	ea, eb []uint64
}

// before returns how many of the sorted entries have a handle below h: the
// index of h's entry if there is one, and of where it would go otherwise.
func before(ents []uint64, h uint64) int {
	lo, n := 0, len(ents)
	for lo < n {
		if mid := int(uint(lo+n) >> 1); ents[mid]>>3 < h {
			lo = mid + 1
		} else {
			n = mid
		}
	}
	return lo
}

func (w *walker) next(s *seg) bool {
	aok, bok := w.ia < len(w.a), w.ib < len(w.b)
	if !aok && !bok {
		return false
	}
	*s = seg{}
	if aok {
		s.ca = w.a[w.ia]
		s.ea = s.ca.ents[w.oa:]
	}
	if bok {
		s.cb = w.b[w.ib]
		s.eb = s.cb.ents[w.ob:]
	}
	switch {
	case !bok || aok && s.ca.last() < s.eb[0]>>3:
		s.cb, s.eb = nil, nil
		w.ia, w.oa = w.ia+1, 0
	case !aok || s.cb.last() < s.ea[0]>>3:
		s.ca, s.ea = nil, nil
		w.ib, w.ob = w.ib+1, 0
	default:
		// Both have entries up to the smaller last handle; the chunk that
		// reaches further is cut there.
		la, lb := s.ca.last(), s.cb.last()
		if la <= lb {
			w.ia, w.oa = w.ia+1, 0
		}
		if lb <= la {
			w.ib, w.ob = w.ib+1, 0
		}
		if la < lb {
			n := before(s.eb, la+1)
			s.eb = s.eb[:n]
			w.ob += n
		} else if lb < la {
			n := before(s.ea, lb+1)
			s.ea = s.ea[:n]
			w.oa += n
		}
	}
	return true
}

// all reports whether r holds for (a(h), b(h)) for every handle h.
func all(a, b *Label, r *rel) bool {
	if r.holds(a.lv, b.lv) {
		return true
	}
	da, db := bit(a.def), bit(b.def)
	if r[a.def]&db == 0 {
		return false
	}
	if ok, decided := lookup(a, b, r); decided {
		return ok
	}
	w := walker{a: a.chunks, b: b.chunks}
	var s seg
	for w.next(&s) {
		switch {
		case s.cb == nil:
			if r.holds(s.ca.lv, db) {
				continue
			}
		case s.ca == nil:
			if r.holds(da, s.cb.lv) {
				continue
			}
		case s.ca == s.cb:
			if r.diag(s.ca.lv) {
				continue
			}
		default:
			if r.holds(s.ca.lv|da, s.cb.lv|db) {
				continue
			}
		}
		if !allEntries(s.ea, s.eb, a.def, b.def, r) {
			return false
		}
	}
	return true
}

// lookup is rule (e): when every level of one label satisfies r against
// the other's default, only the first label's explicit entries can fail, and
// they are looked up in the other. decided is false when neither label
// qualifies or the lookups would cost more than the walk.
func lookup(a, b *Label, r *rel) (ok, decided bool) {
	if r.holds(bit(a.def), b.lv) {
		if ok, decided = probe(a, b, r, true); decided {
			return ok, true
		}
	}
	if r.holds(a.lv, bit(b.def)) {
		return probe(b, a, r, false)
	}
	return false, false
}

// probe is rule (e) for all, where the handles s leaves at its default are
// known to satisfy r: it looks s's other entries up in l instead of walking
// the two labels. left says s is r's left operand. Entries at levels that
// satisfy r against every level of l need no lookup. Past one lookup per
// chunk of l it gives up (decided is false) and leaves the pair to the walk.
func probe(s, l *Label, r *rel, left bool) (ok, decided bool) {
	cool := r.row(l.lv) // levels of s that satisfy r against every level of l
	if left {
		cool = r.col(l.lv)
	}
	n := 0
	for _, c := range s.chunks {
		switch {
		case c.lv&^cool == 0:
			continue
		case c.lv&cool == 0 && n+len(c.ents) > len(l.chunks):
			return false, false // every entry of c is a lookup
		}
		for _, e := range c.ents {
			h, x := unpack(e)
			if cool&bit(x) != 0 {
				continue
			}
			if n++; n > len(l.chunks) {
				return false, false
			}
			if y := l.Get(h); left && r[x]&bit(y) == 0 || !left && r[y]&bit(x) == 0 {
				return false, true
			}
		}
	}
	return true, true
}

// allEntries is all for one interval: two sorted entry runs, each side
// taking its default where it has no entry.
func allEntries(ea, eb []uint64, da, db Level, r *rel) bool {
	for i, j := 0, 0; i < len(ea) || j < len(eb); {
		x, y := da, db
		switch {
		case j == len(eb) || i < len(ea) && ea[i]>>3 < eb[j]>>3:
			x = Level(ea[i] & 7)
			i++
		case i == len(ea) || eb[j]>>3 < ea[i]>>3:
			y = Level(eb[j] & 7)
			j++
		default:
			x, y = Level(ea[i]&7), Level(eb[j]&7)
			i++
			j++
		}
		if r[x]&bit(y) == 0 {
			return false
		}
	}
	return true
}

// merge returns the label h ↦ o(a(h), b(h)). Chunks the operator leaves
// alone are shared with the input they came from, and a result equal to an
// input is that input.
func merge(a, b *Label, o *op) *Label {
	keep := o.left.row(a.lv) // levels of b that leave every level of a unchanged
	if b.lv&^keep == 0 {
		return a
	}
	if o.right.holds(a.lv, b.lv) {
		return b
	}
	if keep&bit(b.def) != 0 {
		if l := sparse(a, b, o, keep); l != nil {
			return l
		}
	}
	def := o.tab[a.def][b.def]
	da, db, dr := bit(a.def), bit(b.def), bit(def)
	var bufs builderBufs
	bd := builder{def: def, chunks: bufs.chunks[:0], run: bufs.run[:0]}
	w := walker{a: a.chunks, b: b.chunks}
	var s seg
	for w.next(&s) {
		if len(bd.run) >= 2*chunkMax {
			bd = bd.spill()
		}
		// A chunk passes through when the operator returns its every entry
		// unchanged and none of them sits at the result's default.
		switch {
		case s.cb == nil:
			if s.ca.lv&dr == 0 && o.left.holds(s.ca.lv, db) {
				bd = bd.pass(s.ca, s.ea)
				continue
			}
		case s.ca == nil:
			if s.cb.lv&dr == 0 && o.right.holds(da, s.cb.lv) {
				bd = bd.pass(s.cb, s.eb)
				continue
			}
		case s.ca == s.cb:
			if s.ca.lv&dr == 0 && s.ca.lv&^o.idem == 0 {
				bd = bd.pass(s.ca, s.ea)
				continue
			}
		default:
			// Returning one side over the whole rectangle includes the
			// defaults, so the result's default is that side's and its
			// entries are already clear of it.
			if o.left.holds(s.ca.lv|da, s.cb.lv|db) {
				bd = bd.pass(s.ca, s.ea)
				continue
			}
			if o.right.holds(s.ca.lv|da, s.cb.lv|db) {
				bd = bd.pass(s.cb, s.eb)
				continue
			}
		}
		start := len(bd.run)
		bd.run = mergeEntries(bd.run, s.ea, s.eb, a.def, b.def, def, o)
		// A rebuilt run that reproduces a whole input chunk is that chunk.
		switch out := bd.run[start:]; {
		case s.ca != nil && slices.Equal(out, s.ca.ents):
			bd.run = bd.run[:start]
			bd = bd.chunk(s.ca)
		case s.cb != nil && slices.Equal(out, s.cb.ents):
			bd.run = bd.run[:start]
			bd = bd.chunk(s.cb)
		}
	}
	return bd.finish(a, b)
}

// sparse is rule (d), for b.def in keep, or nil to leave the pair to the walk.
func sparse(a, b *Label, o *op, keep levels) *Label {
	ups, n := make([]uint64, 0, 8), 0
	for _, c := range b.chunks {
		switch {
		case c.lv&^keep == 0:
			continue
		case c.lv&keep == 0 && n+len(c.ents) > len(a.chunks):
			return nil // every entry of c is a lookup
		}
		for _, e := range c.ents {
			if h, y := unpack(e); keep&bit(y) == 0 {
				if n++; n > len(a.chunks) {
					return nil // past one lookup per chunk of a, the walk is cheaper
				}
				if x := a.Get(h); o.tab[x][y] != x {
					ups = append(ups, e&^7|uint64(o.tab[x][y]))
				}
			}
		}
	}
	if len(ups) == 0 {
		return a
	}
	return a.update(ups, b)
}

// update returns l with ups, packed entries in handle order (one at l's
// default deletes), rebuilding only the chunks they fall in, or one of ins.
func (l *Label) update(ups []uint64, ins ...*Label) *Label {
	if len(ups) == 1 && len(l.chunks) > 0 {
		if r := l.point(ups[0], ins); r != nil {
			return r
		}
	}
	var bufs builderBufs
	bd := builder{def: l.def, chunks: bufs.chunks[:0], run: bufs.run[:0]}
	cs := l.chunks
	for len(ups) > 0 {
		var ents []uint64 // of the chunk the next update falls in; none when l is empty
		n := len(ups)
		if len(cs) > 0 {
			k := min(reach(cs, ups[0]>>3), len(cs)-1)
			bd = bd.chunk(cs[:k]...)
			if ents = cs[k].ents; k < len(cs)-1 {
				n = before(ups, cs[k].last()+1)
			}
			cs = cs[k+1:]
		}
		for _, u := range ups[:n] {
			i := before(ents, u>>3)
			bd.run = append(bd.run, ents[:i]...)
			if i < len(ents) && ents[i]>>3 == u>>3 {
				i++
			}
			if ents = ents[i:]; Level(u&7) != l.def {
				bd.run = append(bd.run, u)
			}
		}
		bd.run, ups = append(bd.run, ents...), ups[n:]
	}
	return bd.chunk(cs...).finish(ins...)
}

// point is update for the single entry u, when the chunk u falls in can be
// replaced alone: the rebuilt chunk is not empty, needs no split, still obeys
// the size invariant against both neighbours, and keeps every level the old
// one took, so that the label's cached levels and count follow from l's. The
// chunk list is copied with that one pointer swapped. Otherwise it returns
// nil, and the builder recuts the neighbourhood.
func (l *Label) point(u uint64, ins []*Label) *Label {
	cs := l.chunks
	k := min(reach(cs, u>>3), len(cs)-1)
	old := cs[k].ents
	var buf [chunkMax + 1]uint64
	i := before(old, u>>3)
	ents := append(buf[:0], old[:i]...)
	if Level(u&7) != l.def {
		ents = append(ents, u)
	}
	if i < len(old) && old[i]>>3 == u>>3 {
		i++
	}
	ents = append(ents, old[i:]...)
	n := len(ents)
	switch {
	case n == 0 || n > chunkMax,
		k > 0 && len(cs[k-1].ents)+n <= chunkMax,
		k < len(cs)-1 && n+len(cs[k+1].ents) <= chunkMax:
		return nil
	case len(cs) == 1 && n <= smallMax:
		return newSmall(l.def, ents, ins)
	}
	c := newChunk(ents)
	if cs[k].lv&^c.lv != 0 {
		return nil
	}
	lv, nent := l.lv|c.lv, int(l.nent)+n-len(old)
	if len(cs) == 1 {
		one := [1]*chunk{c}
		if in := equalIn(ins, l.def, nent, one[:]); in != nil {
			return in
		}
		return newLabel(l.def, lv, nent, one[:])
	}
	chunks := slices.Clone(cs)
	chunks[k] = c
	if in := equalIn(ins, l.def, nent, chunks); in != nil {
		return in
	}
	return &Label{chunks: chunks, nent: int32(nent), def: l.def, lv: lv}
}

// mergeEntries is merge for one interval: it appends o applied to two
// sorted entry runs to out, eliding results at the default def.
func mergeEntries(out, ea, eb []uint64, da, db, def Level, o *op) []uint64 {
	for i, j := 0, 0; i < len(ea) || j < len(eb); {
		var key uint64
		x, y := da, db
		switch {
		case j == len(eb) || i < len(ea) && ea[i]>>3 < eb[j]>>3:
			key, x = ea[i], Level(ea[i]&7)
			i++
		case i == len(ea) || eb[j]>>3 < ea[i]>>3:
			key, y = eb[j], Level(eb[j]&7)
			j++
		default:
			key, x, y = ea[i], Level(ea[i]&7), Level(eb[j]&7)
			i++
			j++
		}
		if v := o.tab[x][y]; v != def {
			out = append(out, key&^7|uint64(v))
		}
	}
	return out
}

// builder assembles a label from chunks passed through by pointer and runs
// of rebuilt entries, in handle order. It maintains the size invariant every
// label obeys: no two adjacent chunks would fit in one (their lengths sum to
// more than chunkMax). Without it, repeated single-handle updates fragment a
// large label into hundreds of tiny chunks and every walk pays for them; with
// it a label of n entries has at most 2·⌈n/chunkMax⌉ chunks.
type builder struct {
	def    Level
	chunks []*chunk // finished
	run    []uint64 // rebuilt entries not yet cut into chunks
}

// builderBufs is stack backing for a builder's two slices, so that an
// operation whose result turns out to be one of its inputs allocates nothing.
// It is a separate value because a struct pointing into itself escapes.
type builderBufs struct {
	chunks [128]*chunk // 4096 entries at the size invariant's worst fill
	run    [2 * chunkMax]uint64
}

// cuts returns into how many chunks a run of n entries is cut. The cut is
// even, like a B-tree split, so each piece has room to grow.
func cuts(n int) int { return (n + chunkMax - 1) / chunkMax }

// The builder's methods take and return it by value, as append does its
// slice: assigning through a pointer receiver would count as a store to the
// heap and drag the caller's stack buffers there.

// pass appends ents, a suffix or the whole of c.ents, unchanged.
func (b builder) pass(c *chunk, ents []uint64) builder {
	if len(ents) == len(c.ents) {
		return b.chunk(c)
	}
	b.run = append(b.run, ents...)
	return b
}

// chunk appends cs, consecutive chunks of one label, by pointer, or copies a
// chunk's entries into a neighbour when the two would fit in one chunk.
func (b builder) chunk(cs ...*chunk) builder {
	for i, c := range cs {
		if n := len(b.run); n > 0 {
			if n/cuts(n)+len(c.ents) <= chunkMax {
				b.run = append(b.run, c.ents...)
				continue
			}
			b = b.flush()
		}
		if k := len(b.chunks); k > 0 && len(b.chunks[k-1].ents)+len(c.ents) <= chunkMax {
			b.run = append(append(b.run, b.chunks[k-1].ents...), c.ents...)
			b.chunks = b.chunks[:k-1]
			continue
		}
		b.chunks = append(b.chunks, cs[i:]...) // the rest obey the size invariant
		break
	}
	return b
}

// spill moves full chunks from the front of a long pending run to the
// finished list, so that an operation that rebuilds a whole label needs a
// run buffer of a few chunks, not of the label.
func (b builder) spill() builder {
	run := b.run
	for ; len(run) >= 2*chunkMax; run = run[chunkMax:] {
		b.chunks = append(b.chunks, newChunk(run[:chunkMax]))
	}
	b.run = b.run[:copy(b.run, run)]
	return b
}

// flush cuts the pending run into chunks.
func (b builder) flush() builder {
	run := b.run
	if len(run) == 0 {
		return b
	}
	k := cuts(len(run))
	if n := len(b.chunks); n > 0 && len(b.chunks[n-1].ents)+(len(run)+k-1)/k <= chunkMax {
		// The previous chunk and the first piece would fit in one: recut
		// them together.
		prev := b.chunks[n-1].ents
		run = append(append(make([]uint64, 0, len(prev)+len(run)), prev...), run...)
		b.chunks = b.chunks[:n-1]
		k = cuts(len(run))
	}
	for ; k > 0; k-- {
		n := (len(run) + k - 1) / k
		b.chunks = append(b.chunks, newChunk(run[:n]))
		run = run[n:]
	}
	b.run = b.run[:0]
	return b
}

// finish returns the assembled label. If it equals one of ins — the
// operation's inputs — that input itself is returned, so equal results keep
// one pointer and one copy.
func (b builder) finish(ins ...*Label) *Label {
	if len(b.chunks) == 0 && len(b.run) <= smallMax {
		return newSmall(b.def, b.run, ins)
	}
	b = b.flush()
	lv, nent := bit(b.def), 0
	for _, c := range b.chunks {
		lv |= c.lv
		nent += len(c.ents)
	}
	if in := equalIn(ins, b.def, nent, b.chunks); in != nil {
		return in
	}
	return newLabel(b.def, lv, nent, b.chunks)
}

// equalIn returns the one of ins that maps every handle as chunks, holding
// nent entries, and default def do, or nil.
func equalIn(ins []*Label, def Level, nent int, chunks []*chunk) *Label {
	for _, in := range ins {
		if in.def == def && int(in.nent) == nent && (slices.Equal(in.chunks, chunks) || eqChunks(in.chunks, chunks)) {
			return in
		}
	}
	return nil
}

// eqChunks reports whether two chunk lists holding the same number of
// entries hold the same entries. Shared chunks compare by pointer.
func eqChunks(x, y []*chunk) bool {
	w := walker{a: x, b: y}
	var s seg
	for w.next(&s) {
		if s.ca != s.cb && !slices.Equal(s.ea, s.eb) {
			return false
		}
	}
	return true
}
