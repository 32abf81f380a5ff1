package label

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"asbestos/internal/handle"
)

// Entry is one explicit (handle, level) pair of a label.
type Entry struct {
	H handle.Handle
	L Level
}

// chunkMax is the maximum number of entries per chunk (paper §5.6: "a sorted
// array of chunks, each of which is a sorted array of up to 64 vnode
// pointers").
const chunkMax = 64

// chunkAllocQuantum models the allocation granularity of chunk entry arrays
// for memory accounting: entries are allocated in blocks of 32 slots, so the
// smallest label (one chunk, ≤32 entries) occupies 296 bytes, matching the
// paper's "smallest label is about 300 bytes long, including space for one
// chunk".
const chunkAllocQuantum = 32

// packed entry: upper 61 bits handle, lower 3 bits level (paper §5.6).
func pack(h handle.Handle, l Level) uint64 { return uint64(h)<<3 | uint64(l) }

func unpack(e uint64) (handle.Handle, Level) {
	return handle.Handle(e >> 3), Level(e & 7)
}

// chunk is a non-empty sorted run of packed entries with the set of levels
// they take cached beside it (the paper's cached min/max, made exact). Chunks
// are immutable once built and are shared between labels — the paper's
// copy-on-write sharing: an operation's result holds the very chunks of its
// inputs wherever it left them unchanged (see merge.go).
type chunk struct {
	ents []uint64
	lv   levels
}

// chunkIn is a chunk allocated together with room for its entries, an
// array A of up to chunkMax of them. With the 32-byte chunk header, each
// array newChunk uses below chunkMax makes an object that fills one size
// class of the Go allocator exactly.
type chunkIn[A any] struct {
	c   chunk
	buf A
}

// newChunk returns a chunk holding a copy of ents (1 to chunkMax of them),
// allocated in one piece with its entries.
func newChunk(ents []uint64) *chunk {
	var c *chunk
	switch n := len(ents); {
	case n <= 4:
		f := new(chunkIn[[4]uint64])
		f.c.ents, c = f.buf[:n:n], &f.c
	case n <= 8:
		f := new(chunkIn[[8]uint64])
		f.c.ents, c = f.buf[:n:n], &f.c
	case n <= 16:
		f := new(chunkIn[[16]uint64])
		f.c.ents, c = f.buf[:n:n], &f.c
	case n <= 24:
		f := new(chunkIn[[24]uint64])
		f.c.ents, c = f.buf[:n:n], &f.c
	case n <= 32:
		f := new(chunkIn[[32]uint64])
		f.c.ents, c = f.buf[:n:n], &f.c
	case n <= 40:
		f := new(chunkIn[[40]uint64])
		f.c.ents, c = f.buf[:n:n], &f.c
	case n <= 48:
		f := new(chunkIn[[48]uint64])
		f.c.ents, c = f.buf[:n:n], &f.c
	case n <= 56:
		f := new(chunkIn[[56]uint64])
		f.c.ents, c = f.buf[:n:n], &f.c
	default:
		f := new(chunkIn[[chunkMax]uint64])
		f.c.ents, c = f.buf[:n:n], &f.c
	}
	c.fill(ents)
	return c
}

// fill copies ents into c.ents and caches their levels.
func (c *chunk) fill(ents []uint64) {
	var lv levels
	for _, e := range ents {
		lv |= 1 << (e & 7)
	}
	copy(c.ents, ents)
	c.lv = lv
}

// last returns the chunk's largest handle, in the shifted form entries
// compare by.
func (c *chunk) last() uint64 { return c.ents[len(c.ents)-1] >> 3 }

// Label is an immutable Asbestos label. The zero value is not meaningful;
// use Empty or New. Because labels are immutable they are shared freely:
// an operation whose result equals one of its operands returns that operand
// itself, which is the reproduction of the paper's refcounted copy-on-write
// sharing.
type Label struct {
	chunks []*chunk
	nent   int32 // so that the header is 32 bytes
	def    Level
	lv     levels // levels taken over all handles, including the default
}

// smallMax is the most entries a label built in one allocation holds: with
// them it is 96 bytes, what a one-entry label took in four allocations.
const smallMax = 3

// oneChunk is a one-chunk label allocated together with its chunk list.
type oneChunk struct {
	l    Label
	list [1]*chunk
}

// small is a label of at most smallMax entries — the kernel's one-handle
// grants and taints — allocated in one piece: header, chunk list, chunk and
// entries.
type small struct {
	oneChunk
	c   chunk
	buf [smallMax]uint64
}

// newLabel returns a label over a copy of chunks, with cached levels lv and
// entry count nent.
func newLabel(def Level, lv levels, nent int, chunks []*chunk) *Label {
	if len(chunks) == 1 {
		o := &oneChunk{l: Label{nent: int32(nent), def: def, lv: lv}, list: [1]*chunk{chunks[0]}}
		o.l.chunks = o.list[:]
		return &o.l
	}
	return &Label{chunks: slices.Clone(chunks), nent: int32(nent), def: def, lv: lv}
}

// newSmall returns the label with default def and entries ents (sorted,
// none at def, at most smallMax of them), or the one of ins equal to it.
func newSmall(def Level, ents []uint64, ins []*Label) *Label {
	if len(ents) == 0 {
		return Empty(def)
	}
	for _, in := range ins {
		// A label of at most smallMax entries has one chunk: two adjacent
		// chunks hold more than chunkMax entries.
		if in.def == def && int(in.nent) == len(ents) && slices.Equal(in.chunks[0].ents, ents) {
			return in
		}
	}
	s := &small{}
	s.c.ents = s.buf[:len(ents):len(ents)]
	s.c.fill(ents)
	s.list[0] = &s.c
	s.l = Label{chunks: s.list[:], nent: int32(len(ents)), def: def, lv: bit(def) | s.c.lv}
	return &s.l
}

var empties [numLevels]*Label

func init() {
	for l := Star; l < numLevels; l++ {
		empties[l] = &Label{def: l, lv: bit(l)}
	}
}

// Empty returns the label mapping every handle to def.
func Empty(def Level) *Label {
	if !def.Valid() {
		panic("label: invalid default level")
	}
	return empties[def]
}

// New builds a label with the given default and explicit entries. Entries
// whose level equals the default are elided (canonical form). New panics on
// duplicate handles, invalid levels, or invalid handles: labels come from
// trusted kernel paths and malformed input is a programming error.
func New(def Level, entries ...Entry) *Label {
	if !def.Valid() {
		panic("label: invalid default level")
	}
	var buf [smallMax]uint64
	ents := buf[:0]
	if len(entries) > smallMax {
		ents = make([]uint64, 0, len(entries))
	}
	for _, e := range entries {
		if !e.L.Valid() {
			panic("label: invalid level " + e.L.String())
		}
		if !e.H.Valid() {
			panic("label: invalid handle " + e.H.String())
		}
		if e.L != def {
			ents = append(ents, pack(e.H, e.L))
		}
	}
	slices.Sort(ents)
	for i := 1; i < len(ents); i++ {
		if ents[i]>>3 == ents[i-1]>>3 {
			h, _ := unpack(ents[i])
			panic("label: duplicate handle " + h.String())
		}
	}
	b := builder{def: def, run: ents}
	return b.finish()
}

// Default returns the label's default level.
func (l *Label) Default() Level { return l.def }

// Len returns the number of explicit entries.
func (l *Label) Len() int { return int(l.nent) }

// Min and Max return the label's level bounds over all handles (including
// the default). The paper caches these to enable fast-path lattice ops.
func (l *Label) Min() Level { return Level(bits.TrailingZeros8(l.lv)) }
func (l *Label) Max() Level { return Level(bits.Len8(l.lv) - 1) }

// reach returns the index of the first chunk reaching handle h, or len(cs).
func reach(cs []*chunk, h uint64) int {
	lo, n := 0, len(cs)
	for lo < n {
		if mid := int(uint(lo+n) >> 1); cs[mid].last() < h {
			lo = mid + 1
		} else {
			n = mid
		}
	}
	return lo
}

// Get returns the level of handle h. A handle no label can hold an entry for
// (handle.None, or one above handle.MaxHandle) gets the default.
func (l *Label) Get(h handle.Handle) Level {
	i := reach(l.chunks, uint64(h))
	if i == len(l.chunks) {
		return l.def
	}
	c := l.chunks[i]
	if j := before(c.ents, uint64(h)); j < len(c.ents) && c.ents[j]>>3 == uint64(h) {
		return Level(c.ents[j] & 7)
	}
	return l.def
}

// With returns a label identical to l except that handle h maps to lvl.
// Only the chunk h falls in is rebuilt (update); the rest are shared with the
// receiver. A change returns a new label; no change returns the receiver.
func (l *Label) With(h handle.Handle, lvl Level) *Label {
	if !lvl.Valid() {
		panic("label: invalid level " + lvl.String())
	}
	if !h.Valid() {
		panic("label: invalid handle " + h.String())
	}
	if l.Get(h) == lvl {
		return l
	}
	return l.update([]uint64{pack(h, lvl)})
}

// Leq reports a ⊑ b: a(h) ≤ b(h) for all h. The labels' cached levels
// settle most comparisons without a walk (paper §5.6); the rest walk the two
// labels chunk by chunk.
func (l *Label) Leq(m *Label) bool {
	return l == m || relLeq.holds(l.lv, m.lv) || all(l, m, &relLeq)
}

// Lub returns the least upper bound a ⊔ b: pointwise max. Used to combine
// contamination when a message is delivered (paper Equation 2). When one
// operand absorbs the other the result is that operand, unallocated (paper
// §5.6: "if L2's maximum level is no larger than L1's minimum level, then
// L1 ⊔ L2 = L1 by definition" — here per chunk as well as per label).
func (l *Label) Lub(m *Label) *Label {
	if l == m {
		return l
	}
	return merge(l, m, opMax)
}

// Glb returns the greatest lower bound a ⊓ b: pointwise min. Used for
// declassification: ⊓ against a stars-only label preserves the receiver's
// ⋆ privileges during contamination (paper Equation 5).
func (l *Label) Glb(m *Label) *Label {
	if l == m {
		return l
	}
	return merge(l, m, opMin)
}

// Contaminate returns the Equation 5 update QS ⊔ (ES ⊓ QS⋆) in one fused
// pass: pointwise, a handle held at ⋆ keeps its privilege, anything else
// takes the max of the current level and the incoming effective level. It
// runs on every message delivery. The steady state — a receiver that holds
// ⋆ or already sits at or above the incoming level everywhere — returns the
// receiver without allocating if es's default is at most each level of l
// above ⋆ and es has no more entries that could raise l than l has chunks.
func (l *Label) Contaminate(es *Label) *Label {
	if l == es {
		return l
	}
	return merge(l, es, opEq5)
}

// StarRestrict returns L⋆: ⋆ where the label has ⋆, 3 everywhere else
// (paper Figure 3). It projects a label onto its declassification
// privileges; chunks that are ⋆ throughout are shared with the receiver.
func (l *Label) StarRestrict() *Label {
	return merge(l, Empty(L3), opStar)
}

// Req2 reports Figure 4's requirement 2 on a sender whose send label is ps:
// DS(h) < 3 ⇒ PS(h) = ⋆ for all h — granting privilege demands ⋆.
func Req2(ds, ps *Label) bool { return all(ds, ps, &relReq2) }

// Req3 reports Figure 4's requirement 3: DR(h) > ⋆ ⇒ PS(h) = ⋆ for all h —
// raising another process's receive label demands ⋆ as well.
func Req3(dr, ps *Label) bool { return all(dr, ps, &relReq3) }

// Eq reports whether two labels are the same function.
func (l *Label) Eq(m *Label) bool {
	return l == m || l.def == m.def && l.nent == m.nent && eqChunks(l.chunks, m.chunks)
}

// Each calls f for every explicit entry in handle order; f returning false
// stops the walk.
func (l *Label) Each(f func(handle.Handle, Level) bool) {
	for _, c := range l.chunks {
		for _, e := range c.ents {
			h, lvl := unpack(e)
			if !f(h, lvl) {
				return
			}
		}
	}
}

// EachAboveStar is Each restricted to entries above ⋆; chunks that are ⋆
// throughout are skipped whole.
func (l *Label) EachAboveStar(f func(handle.Handle, Level) bool) {
	for _, c := range l.chunks {
		if c.lv == bit(Star) {
			continue
		}
		for _, e := range c.ents {
			if h, lvl := unpack(e); lvl != Star && !f(h, lvl) {
				return
			}
		}
	}
}

// Entries returns the explicit entries in handle order.
func (l *Label) Entries() []Entry {
	out := make([]Entry, 0, l.nent)
	l.Each(func(h handle.Handle, lvl Level) bool {
		out = append(out, Entry{h, lvl})
		return true
	})
	return out
}

// SizeBytes models the kernel memory occupied by this label: a 32-byte
// header plus, per chunk, an 8-byte chunk header and entry storage rounded
// up to 32-slot blocks. The smallest label is 296 bytes, matching the
// paper's "about 300 bytes, including space for one chunk" (§5.6).
func (l *Label) SizeBytes() int {
	n := 32
	chunks := len(l.chunks)
	if chunks == 0 {
		chunks = 1 // space for one chunk is always reserved
	}
	n += chunks * 8
	for _, c := range l.chunks {
		blocks := (len(c.ents) + chunkAllocQuantum - 1) / chunkAllocQuantum
		n += blocks * chunkAllocQuantum * 8
	}
	if len(l.chunks) == 0 {
		n += chunkAllocQuantum * 8
	}
	return n
}

// String renders the label in the paper's set notation, e.g. "{h7 *, h9 3, 1}".
func (l *Label) String() string {
	var b strings.Builder
	b.WriteByte('{')
	l.Each(func(h handle.Handle, lvl Level) bool {
		fmt.Fprintf(&b, "%s %s, ", h, lvl)
		return true
	})
	b.WriteString(l.def.String())
	b.WriteByte('}')
	return b.String()
}

// Parse parses the String representation: "{h7 *, h9 3, 1}" or "{1}".
func Parse(s string) (*Label, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, fmt.Errorf("label: %q is not wrapped in braces", s)
	}
	parts := strings.Split(s[1:len(s)-1], ",")
	defStr := strings.TrimSpace(parts[len(parts)-1])
	def, ok := ParseLevel(defStr)
	if !ok {
		return nil, fmt.Errorf("label: bad default level %q", defStr)
	}
	var entries []Entry
	for _, p := range parts[:len(parts)-1] {
		fields := strings.Fields(strings.TrimSpace(p))
		if len(fields) != 2 {
			return nil, fmt.Errorf("label: bad entry %q", p)
		}
		hs := strings.TrimPrefix(fields[0], "h")
		var hv uint64
		if _, err := fmt.Sscanf(hs, "%d", &hv); err != nil {
			return nil, fmt.Errorf("label: bad handle %q", fields[0])
		}
		lvl, ok := ParseLevel(fields[1])
		if !ok {
			return nil, fmt.Errorf("label: bad level %q", fields[1])
		}
		entries = append(entries, Entry{handle.Handle(hv), lvl})
	}
	var l *Label
	func() {
		defer func() { recover() }()
		l = New(def, entries...)
	}()
	if l == nil {
		return nil, fmt.Errorf("label: invalid entries in %q", s)
	}
	return l, nil
}

// OpCacheStats is the hit and miss count of a label memo. Labels are no
// longer memoized, so both are always zero.
type OpCacheStats struct{}

// Hits returns 0.
func (OpCacheStats) Hits() uint64 { return 0 }

// Misses returns 0.
func (OpCacheStats) Misses() uint64 { return 0 }

// CacheStats reports zero hits and misses. It is kept only because the
// benchmark still reads it; a benchmark-only change deletes it together with
// the label.opcache_hit_ratio metric.
func CacheStats() OpCacheStats { return OpCacheStats{} }
