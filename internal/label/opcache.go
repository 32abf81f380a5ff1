package label

import (
	"sync"
	"sync/atomic"

	"asbestos/internal/handle"
	"asbestos/internal/stats"
)

// Memoized label operations (the §5.6 cached-bounds idea extended across
// calls). Every Label carries a fingerprint: a process-unique id assigned
// when the label value is built. Because labels are immutable, a fingerprint
// permanently names one label value — With and the lattice operations return
// a *new* label with a *new* fingerprint whenever the value changes, so a
// mutation can never be confused with the label it derived from. That is the
// cache's whole invalidation story: stale pairs simply stop being looked up,
// and eviction (epoch clearing of full shards) bounds the memory they
// occupy.
//
// Two things are memoized. Leq (⊑) results, a boolean per ordered
// fingerprint pair — but Leq consults the memo only after the labels'
// cached levels fail to settle the comparison, and they settle most of
// them: of the ⊑ checks an OKWS server makes, at most about one in eight
// reaches the memo, and only the login path — which checks the same
// freshly minted labels several times — ever repeats a pair. The memo also
// has a side effect that pays for it: its pre-sized shard maps are a large
// share of a small server's live heap, and without them the collector runs
// about half again as often, which costs more CPU than the maps do. And
// single-entry labels (Single), so that repeated sends carry labels with
// stable fingerprints and skip the build allocation. ⊔, ⊓ and Contaminate
// are not memoized: their results share the chunks of their operands, so
// recomputing one costs the chunks that change, and a result equal to an
// operand is that operand.
// Hit/miss tallies use lock-free striped stats.Counters so the bookkeeping
// itself cannot serialize concurrent senders.

// opShardCount is the number of independent cache shards; keys are spread by
// fingerprint hash so concurrent senders rarely contend. Power of two.
const opShardCount = 64

// leqShardMax bounds each shard's map; a full shard is cleared wholesale
// (epoch eviction), which keeps every cache O(1) in steady state without
// tracking LRU chains on the hot path.
const leqShardMax = 2048

type leqKey struct{ a, b uint64 }

type leqShard struct {
	mu sync.Mutex
	m  map[leqKey]bool
	_  [48]byte // pad to a 64-byte cache line so shards do not false-share
}

var leqCache [opShardCount]leqShard

var leqHits, leqMisses stats.Counter

// fpCounter hands out label fingerprints. Fingerprint 0 is never assigned,
// so a zero-value Label (which is documented as not meaningful) never
// aliases a real cache entry.
var fpCounter atomic.Uint64

func newFP() uint64 { return fpCounter.Add(1) }

// Fingerprint returns the label's identity for memoization: two labels with
// the same fingerprint are the same immutable value. The converse does not
// hold — equal values built independently get distinct fingerprints, which
// costs a cache miss, never a wrong answer.
func (l *Label) Fingerprint() uint64 { return l.fp }

func shardIdx(k leqKey) uint64 {
	// Fibonacci-style mix of both fingerprints.
	h := (k.a*0x9e3779b97f4a7c15 ^ k.b) * 0x9e3779b97f4a7c15
	return h >> (64 - 6) & (opShardCount - 1)
}

func leqLookup(a, b uint64) (result, ok bool) {
	k := leqKey{a, b}
	s := &leqCache[shardIdx(k)]
	s.mu.Lock()
	r, ok := s.m[k]
	s.mu.Unlock()
	if ok {
		leqHits.Add(1)
	} else {
		leqMisses.Add(1)
	}
	return r, ok
}

func leqStore(a, b uint64, r bool) {
	k := leqKey{a, b}
	s := &leqCache[shardIdx(k)]
	s.mu.Lock()
	if s.m == nil || len(s.m) >= leqShardMax {
		s.m = make(map[leqKey]bool, leqShardMax/4)
	}
	s.m[k] = r
	s.mu.Unlock()
}

// singleShard memoizes one-entry labels: {h lvl, def}. The kernel's send
// helpers (Grant, Taint, AllowRecv, Verify) build these on every message —
// usually for the same few handles (a session's reply port, a user's taint
// compartment) — so interning them removes the build allocation and gives
// repeated sends stable fingerprints.
type singleShard struct {
	mu sync.Mutex
	m  map[singleKey]*Label
	_  [48]byte
}

type singleKey struct {
	h        handle.Handle
	def, lvl Level
}

var singleCache [opShardCount]singleShard

var singleHits, singleMisses stats.Counter

// Single returns the canonical label mapping h to lvl and every other
// handle to def — the memoized equivalent of New(def, Entry{h, lvl}).
func Single(def Level, h handle.Handle, lvl Level) *Label {
	if !h.Valid() {
		panic("label: invalid handle " + h.String())
	}
	if lvl == def {
		return Empty(def)
	}
	k := singleKey{h: h, def: def, lvl: lvl}
	s := &singleCache[uint64(h)*0x9e3779b97f4a7c15>>(64-6)&(opShardCount-1)]
	s.mu.Lock()
	if l := s.m[k]; l != nil {
		s.mu.Unlock()
		singleHits.Add(1)
		return l
	}
	s.mu.Unlock()
	singleMisses.Add(1)
	l := New(def, Entry{H: h, L: lvl})
	s.mu.Lock()
	if s.m == nil || len(s.m) >= leqShardMax {
		s.m = make(map[singleKey]*Label, leqShardMax/4)
	}
	// A racing builder may have stored its own copy; keep the first so
	// every caller shares one fingerprint from then on.
	if prev := s.m[k]; prev != nil {
		l = prev
	} else {
		s.m[k] = l
	}
	s.mu.Unlock()
	return l
}

// OpCacheStats reports cumulative hit/miss counts for the memoized label
// operations (diagnostics, the Figure 9 sweep, and tests). Counts are exact
// against a quiescent cache; concurrent operations may be mid-flight.
type OpCacheStats struct {
	LeqHits, LeqMisses       uint64
	SingleHits, SingleMisses uint64
}

// Hits returns the total hits across all memoized operations.
func (s OpCacheStats) Hits() uint64 { return s.LeqHits + s.SingleHits }

// Misses returns the total misses across all memoized operations.
func (s OpCacheStats) Misses() uint64 { return s.LeqMisses + s.SingleMisses }

// HitRate returns hits/(hits+misses) over all operations, 0 when idle.
func (s OpCacheStats) HitRate() float64 {
	total := s.Hits() + s.Misses()
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// CacheStats snapshots the op-cache counters.
func CacheStats() OpCacheStats {
	return OpCacheStats{
		LeqHits: leqHits.Load(), LeqMisses: leqMisses.Load(),
		SingleHits: singleHits.Load(), SingleMisses: singleMisses.Load(),
	}
}

// ResetOpCache drops every memoized result and zeroes the stats (tests and
// benchmarks).
func ResetOpCache() {
	for i := 0; i < opShardCount; i++ {
		leqCache[i].mu.Lock()
		leqCache[i].m = nil
		leqCache[i].mu.Unlock()
		singleCache[i].mu.Lock()
		singleCache[i].m = nil
		singleCache[i].mu.Unlock()
	}
	for _, c := range []*stats.Counter{&leqHits, &leqMisses, &singleHits, &singleMisses} {
		c.Reset()
	}
}
