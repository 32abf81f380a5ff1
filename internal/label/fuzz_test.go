package label

import (
	"testing"

	"asbestos/internal/handle"
)

// fuzzHandleRange keeps fuzzed handles in a small range so the two labels'
// explicit entries collide often — the interesting case for the chunked
// merge loops.
const fuzzHandleRange = 12

// decodeSimple consumes bytes from data to build a reference label,
// returning it and the remaining bytes. The first byte picks the default
// level; subsequent (handle, level) byte pairs add entries, with a
// duplicate handle overwriting the previous level, mirroring map semantics.
func decodeSimple(data []byte, nent int) (*Simple, []byte) {
	if len(data) == 0 {
		return NewSimple(L1), nil
	}
	s := NewSimple(Level(data[0] % numLevels))
	data = data[1:]
	for i := 0; i < nent && len(data) >= 2; i++ {
		h := handle.Handle(data[0]%fuzzHandleRange) + 1
		lvl := Level(data[1] % numLevels)
		if lvl == s.Def {
			delete(s.M, h)
		} else {
			s.M[h] = lvl
		}
		data = data[2:]
	}
	return s, data
}

// contaminateSimple is the reference form of Label.Contaminate: the
// Equation 5 update QS ⊔ (ES ⊓ QS⋆).
func contaminateSimple(qs, es *Simple) *Simple {
	return qs.Lub(es.Glb(qs.StarRestrict()))
}

// FuzzLabelOps cross-checks every chunked label operation against the
// map-based reference implementation in simple.go.
func FuzzLabelOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 3, 4, 7, 0, 2, 1, 2, 3, 4})
	f.Add([]byte{4, 1, 0, 2, 4, 3, 3, 0, 1, 1, 2, 2, 5, 4, 6, 0})
	// Enough entries to span multiple chunks is impossible with 12 handles,
	// so also exercise the With path that splits chunks via the level byte.
	f.Add([]byte{2, 9, 4, 9, 0, 9, 1, 8, 3, 7, 2, 6, 1, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		sa, rest := decodeSimple(data, 8)
		sb, rest := decodeSimple(rest, 8)
		a, b := sa.ToLabel(), sb.ToLabel()

		// Construction must round-trip.
		if !FromLabel(a).Eq(sa) || !FromLabel(b).Eq(sb) {
			t.Fatalf("round-trip mismatch: %v vs %v", a, sa)
		}

		// Pointwise lookups across the live handle range plus outsiders.
		for h := handle.Handle(1); h <= fuzzHandleRange+2; h++ {
			if a.Get(h) != sa.Get(h) {
				t.Fatalf("Get(%v): chunked %v, reference %v", h, a.Get(h), sa.Get(h))
			}
		}

		// Comparisons, both directions.
		if a.Leq(b) != sa.Leq(sb) {
			t.Fatalf("Leq(%v, %v): chunked %v, reference %v", a, b, a.Leq(b), sa.Leq(sb))
		}
		if b.Leq(a) != sb.Leq(sa) {
			t.Fatalf("Leq(%v, %v): chunked %v, reference %v", b, a, b.Leq(a), sb.Leq(sa))
		}
		if a.Eq(b) != sa.Eq(sb) {
			t.Fatalf("Eq(%v, %v): chunked %v, reference %v", a, b, a.Eq(b), sa.Eq(sb))
		}

		// Lattice operations.
		if got, want := FromLabel(a.Lub(b)), sa.Lub(sb); !got.Eq(want) {
			t.Fatalf("Lub(%v, %v) = %v, want %v", a, b, a.Lub(b), want)
		}
		if got, want := FromLabel(a.Glb(b)), sa.Glb(sb); !got.Eq(want) {
			t.Fatalf("Glb(%v, %v) = %v, want %v", a, b, a.Glb(b), want)
		}
		if got, want := FromLabel(a.StarRestrict()), sa.StarRestrict(); !got.Eq(want) {
			t.Fatalf("StarRestrict(%v) = %v, want %v", a, a.StarRestrict(), want)
		}
		if got, want := FromLabel(a.Contaminate(b)), contaminateSimple(sa, sb); !got.Eq(want) {
			t.Fatalf("Contaminate(%v, %v) = %v, want %v", a, b, a.Contaminate(b), want)
		}

		// With: mutate by the next two fuzz bytes and compare against a map
		// update; then re-compare the mutated label to b.
		if len(rest) >= 2 {
			h := handle.Handle(rest[0]%fuzzHandleRange) + 1
			lvl := Level(rest[1] % numLevels)
			a2 := a.With(h, lvl)
			checkInvariants(t, a2, a)
			sa2 := NewSimple(sa.Def)
			for k, v := range sa.M {
				sa2.M[k] = v
			}
			if lvl == sa2.Def {
				delete(sa2.M, h)
			} else {
				sa2.M[h] = lvl
			}
			if !FromLabel(a2).Eq(sa2) {
				t.Fatalf("With(%v, %v, %v) = %v, want %v", a, h, lvl, a2, sa2)
			}
			if a2.Leq(b) != sa2.Leq(sb) {
				t.Fatalf("Leq after With: chunked %v, reference %v", a2.Leq(b), sa2.Leq(sb))
			}
			// Cached bounds must stay consistent on the mutated label.
			min, max := a2.Default(), a2.Default()
			a2.Each(func(_ handle.Handle, l Level) bool {
				min, max = minLevel(min, l), maxLevel(max, l)
				return true
			})
			if a2.Min() != min || a2.Max() != max {
				t.Fatalf("With bounds: Min/Max = %v/%v, want %v/%v", a2.Min(), a2.Max(), min, max)
			}
		}
	})
}
