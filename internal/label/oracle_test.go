package label

import "asbestos/internal/handle"

// The entry-at-a-time core the chunk walk in merge.go replaced, kept as a
// second oracle beside Simple: it shares the packed representation but none
// of the chunk rules.

// PairwiseAll reports whether pred(a(h), b(h)) holds for every handle h,
// checking the union of both labels' explicit entries plus the defaults.
func PairwiseAll(a, b *Label, pred func(av, bv Level) bool) bool {
	ok := pred(a.def, b.def)
	pairwise(a, b, func(_ handle.Handle, av, bv Level) {
		ok = ok && pred(av, bv)
	})
	return ok
}

// combine merges two labels pointwise with op.
func combine(a, b *Label, op func(Level, Level) Level) *Label {
	def := op(a.def, b.def)
	var ents []Entry
	pairwise(a, b, func(h handle.Handle, av, bv Level) {
		ents = append(ents, Entry{h, op(av, bv)})
	})
	return New(def, ents...)
}

// pairwise calls f with both labels' levels at every handle either mentions.
func pairwise(a, b *Label, f func(h handle.Handle, av, bv Level)) {
	ea, eb := a.Entries(), b.Entries()
	for len(ea) > 0 || len(eb) > 0 {
		switch {
		case len(eb) == 0 || len(ea) > 0 && ea[0].H < eb[0].H:
			f(ea[0].H, ea[0].L, b.def)
			ea = ea[1:]
		case len(ea) == 0 || eb[0].H < ea[0].H:
			f(eb[0].H, a.def, eb[0].L)
			eb = eb[1:]
		default:
			f(ea[0].H, ea[0].L, eb[0].L)
			ea, eb = ea[1:], eb[1:]
		}
	}
}
