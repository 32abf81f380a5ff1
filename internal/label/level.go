// Package label implements the Asbestos label algebra (paper §5).
//
// A label is a total function from handles to levels, represented as a
// finite set of (handle, level) entries plus a default level that applies to
// every handle not mentioned. Levels form the ordered set [⋆, 0, 1, 2, 3]
// where ⋆ is the lowest (most privileged) level: a process with level ⋆ for
// handle h controls compartment h and can declassify data in it.
//
// Labels form a lattice under the pointwise order ⊑ (Leq), with pointwise
// max as least upper bound ⊔ (Lub) and pointwise min as greatest lower bound
// ⊓ (Glb).
//
// Two implementations are provided. Label is the optimized representation
// from paper §5.6: a sorted array of chunks, each a sorted array of up to 64
// packed 64-bit entries with the levels it holds cached beside it (the
// paper's cached min/max), and the same cache on the label as a whole.
// Simple is a map-based reference implementation used by property tests to
// validate Label.
//
// Chunks are immutable and shared structurally between labels, and that
// sharing is what the operations run on. ⊑, ⊔, ⊓, Contaminate, StarRestrict
// and Figure 4's sender-side requirements all advance their two operands
// chunk by chunk (merge.go) and decide a whole chunk at a time from what it
// caches: (a) the same chunk pointer on both sides is skipped or passed
// through; (b) a chunk whose handle span the other label has no entry in is
// skipped or passed through by pointer when the relation holds, or the
// operator is the identity, against the other label's default for every
// level in the chunk; (c) two overlapping chunks are skipped together, or
// one passed through, when the same is true of every pair of levels the two
// can hold. Entries are walked only where no rule applies, and the result
// holds the operands' own chunks everywhere else — which is what lets the
// next operation on it hit rule (a). A walk still cuts every chunk the other
// label's boundaries fall in — all of them when the handles interleave — so
// merge first tries (d): if b's default leaves a unchanged, a is looked up
// only at b's entries that can change it, and a point update shared with
// With rebuilds only the chunks holding changed handles. The relations try
// (e) first: if every level of one label satisfies the relation against the
// other's default, only the first label's explicit entries are looked up in
// the other. A single point update replaces one chunk and copies the chunk
// list with that pointer swapped, unless the chunk splits, empties, could
// join a neighbour or loses a level. So an operation costs the chunks it
// changes rather than the entries it spans. Two invariants keep this sound
// and cheap: no two adjacent chunks of a label would fit in one (so
// single-handle updates cannot fragment a label into many small chunks), and
// a result equal to an operand is that operand itself (so equal labels stay
// one label for memory accounting).
//
// Allocation follows the same rule. A chunk is allocated in one piece with
// its entries; a one-chunk label with its chunk list; and a label of at most
// three entries — the kernel's one-handle grants and taints — is a single
// allocation holding its header, list, chunk and entries.
//
// Labels are plain values: nothing is memoized across calls, and the
// package holds no lock and no mutable state.
package label

import "strconv"

// Level is one of the five Asbestos privilege levels.
//
// In send labels, ⋆ marks declassification privilege, 1 is the default
// ("untainted"), 2 is partial taint and 3 full taint; 0 carries integrity
// privilege that is lost on contact with ordinary processes (§5.4). In
// receive labels, 3 grants the right to be tainted arbitrarily, 2 is the
// default, and lower levels refuse taint.
type Level uint8

const (
	// Star (⋆) is the lowest, most privileged level: declassification
	// privilege with respect to a handle.
	Star Level = iota
	// L0 supports integrity policies and capabilities.
	L0
	// L1 is the default level for send labels.
	L1
	// L2 is the default level for receive labels.
	L2
	// L3 is the highest (least privileged) level: full taint in send
	// labels, full clearance in receive labels.
	L3

	numLevels = 5
)

// DefaultSend and DefaultRecv are the label defaults for freshly created
// processes (paper §5.1): send labels default to 1, receive labels to 2.
// The gap between the two defaults is what lets Asbestos express both
// "deny by default" (taint at 3) and "allow by default" (taint at 2)
// policies without relabeling the whole system.
const (
	DefaultSend = L1
	DefaultRecv = L2
)

// Valid reports whether l is one of the five defined levels.
func (l Level) Valid() bool { return l < numLevels }

func (l Level) String() string {
	switch l {
	case Star:
		return "*"
	case L0, L1, L2, L3:
		return strconv.Itoa(int(l) - 1)
	default:
		return "invalid(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel parses "*", "0", "1", "2" or "3".
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "*":
		return Star, true
	case "0":
		return L0, true
	case "1":
		return L1, true
	case "2":
		return L2, true
	case "3":
		return L3, true
	}
	return 0, false
}

func maxLevel(a, b Level) Level {
	if a > b {
		return a
	}
	return b
}

func minLevel(a, b Level) Level {
	if a < b {
		return a
	}
	return b
}

// starProject is the per-handle form of the L⋆ operator (paper Figure 3):
// ⋆ stays ⋆, everything else becomes 3.
func starProject(l Level) Level {
	if l == Star {
		return Star
	}
	return L3
}
