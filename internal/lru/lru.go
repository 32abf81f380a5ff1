// Package lru is the bounded map every trusted service uses for the tables
// an attacker can grow without bound. The demux caps its session table and
// login cache with it (one entry per (user, service) or credential pair
// seen), and idd caps its backoff table (one entry per username tried): a
// credential-stuffing run or a many-user workload recycles old entries
// instead of growing service memory forever. Eviction is always safe — an
// evicted session re-deals on its next connection, an evicted login
// re-asks idd, and an evicted backoff entry settles its deferred replies
// and restarts the name's ladder.
//
// All mutating methods belong to the owning shard's loop; only Len is safe
// to call from other goroutines (diagnostics).
package lru

import "sync/atomic"

// Cache is a tiny bounded map with least-recently-used eviction.
type Cache[K comparable, V any] struct {
	cap  int
	m    map[K]*entry[K, V]
	head *entry[K, V] // most recently used
	tail *entry[K, V] // eviction candidate
	size atomic.Int64

	// onEvict, when set, observes capacity evictions (not Deletes) — the
	// demux uses it to settle state hanging off the evicted key (a bound
	// session's event process, or the connections parked behind a pin, and
	// the entry's timer either way), and idd uses it to settle the failure
	// replies deferred behind an evicted name, instead of stranding them.
	onEvict func(K, V)
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New builds a cache bounded to capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{cap: capacity, m: make(map[K]*entry[K, V])}
}

// NewEvict is New with an eviction observer.
func NewEvict[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	c := New[K, V](capacity)
	c.onEvict = onEvict
	return c
}

// Get returns the value for k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	e := c.m[k]
	if e == nil {
		var zero V
		return zero, false
	}
	c.moveToFront(e)
	return e.val, true
}

// Peek returns the value for k without touching recency — for diagnostics
// and for read paths that must not let an attacker's probes pin an entry.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	e := c.m[k]
	if e == nil {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Put inserts or updates k, evicting the least recently used entry when
// the cache is full.
func (c *Cache[K, V]) Put(k K, v V) {
	if e := c.m[k]; e != nil {
		e.val = v
		c.moveToFront(e)
		return
	}
	if len(c.m) >= c.cap {
		victim := c.tail
		c.unlink(victim)
		if c.onEvict != nil && victim != nil {
			c.onEvict(victim.key, victim.val)
		}
	}
	e := &entry[K, V]{key: k, val: v}
	c.m[k] = e
	c.pushFront(e)
	c.size.Store(int64(len(c.m)))
}

// Delete removes k if present.
func (c *Cache[K, V]) Delete(k K) {
	if e := c.m[k]; e != nil {
		c.unlink(e)
	}
}

// Len reports the current entry count; safe from any goroutine.
func (c *Cache[K, V]) Len() int { return int(c.size.Load()) }

// Keys snapshots the current key set in no particular order. Owning-loop
// only, like the other readers that walk the map.
func (c *Cache[K, V]) Keys() []K {
	out := make([]K, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	return out
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e == nil {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(c.m, e.key)
	c.size.Store(int64(len(c.m)))
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	// Detach without touching the map.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.pushFront(e)
}
