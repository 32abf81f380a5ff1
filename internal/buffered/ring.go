// Package buffered provides Ring, the per-direction byte queue of netd's
// real-socket connections: a chain of pooled chunks that socket reads fill
// in place and writev drains as a batch, so a burst of replies costs one
// syscall and a drained connection holds no buffer memory.
package buffered

import (
	"sync"
	"sync/atomic"
)

// RingChunkSize is the capacity of one pooled ring chunk. It matches the
// socket read granularity: one kernel read fills at most one chunk, and a
// drained ring with no Writable reservation outstanding holds no chunks at
// all — ten thousand parked keep-alive connections on the epoll poller
// cost zero buffer memory between requests.
const RingChunkSize = 32 * 1024

// ringMinWritable is the smallest tail fragment worth offering a producer:
// below it, Writable seals the current chunk and starts a fresh one so a
// socket read is never split into a tiny syscall just to fill a sliver.
const ringMinWritable = 2 * 1024

// chunk is one pooled buffer segment. head..tail is the live region; the
// producer appends at tail, the consumer drains from head.
type chunk struct {
	next *chunk
	head int
	tail int
	buf  [RingChunkSize]byte
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// outstanding counts chunks drawn from the pool and not yet returned.
var outstanding atomic.Int64

// ChunksOutstanding reports how many pooled chunks all Rings of the
// process hold right now (drawn − returned). Leak tests compare it before
// and after a connection's life.
func ChunksOutstanding() int64 { return outstanding.Load() }

func getChunk() *chunk {
	c := chunkPool.Get().(*chunk)
	c.next, c.head, c.tail = nil, 0, 0
	outstanding.Add(1)
	return c
}

func putChunk(c *chunk) {
	c.next = nil
	outstanding.Add(-1)
	chunkPool.Put(c)
}

// Ring is a pooled, chunked byte queue: the inbound and outbound buffer
// behind every real-socket connection on netd's epoll poller (Linux; other
// platforms have only the simulated wire). Unlike an append-grown []byte
// it allocates nothing in steady state — storage is fixed-size chunks
// drawn from a shared sync.Pool and returned the moment they drain — and
// it supports zero-copy hand-off on both sides: Writable exposes tail
// space a socket read can fill directly, and Take/Views expose head bytes
// without copying them out.
//
// A Ring is NOT safe for concurrent use; callers guard it with the
// per-connection mutex. It is, however, designed for the single-producer /
// single-consumer split the poller transport uses, where the producer
// holds a Writable reservation ACROSS an unlocked socket read:
//
//   - Writable/Commit touch only the tail chunk's free region. While a
//     reservation is outstanding (Writable called, Commit not yet) the
//     consumer never moves, recycles, or rewrites that region: a fully
//     drained last chunk is recycled only once no reservation points into
//     it, so the reservation stays valid while the consumer drains under
//     the same lock. Every Writable must therefore be paired with a Commit
//     (of 0 when nothing arrived), or the last chunk stays pinned.
//   - A slice returned by Take stays valid until the NEXT consumer call
//     (Take, Views, Discard, or Reset) — the chunk it points into is kept
//     off the pool until then, and producer appends only ever write past
//     tail. Callers that need the bytes longer must copy.
//
// The zero value is an empty, ready-to-use Ring.
type Ring struct {
	first *chunk
	last  *chunk
	n     int
	// spent is the chunk backing the most recent Take view after the take
	// drained it: fully consumed and unlinked, but not yet poolable because
	// the caller may still be reading the view. The next consumer call
	// recycles it.
	spent *chunk
	// reserved records an outstanding Writable reservation in the last
	// chunk (Writable sets, Commit clears).
	reserved bool
}

// Len reports the buffered byte count.
func (r *Ring) Len() int { return r.n }

// Writable returns writable tail space, starting a fresh pooled chunk when
// the current one has less than a useful fragment left. The producer fills
// some prefix of the returned slice (e.g. by a socket read) and then calls
// Commit with the byte count. The reservation stays valid across other
// Ring calls until Commit, per the rules above.
func (r *Ring) Writable() []byte {
	if r.last == nil || RingChunkSize-r.last.tail < ringMinWritable {
		c := getChunk()
		if r.last == nil {
			r.first, r.last = c, c
		} else {
			r.last.next = c
			r.last = c
		}
	}
	r.reserved = true
	return r.last.buf[r.last.tail:]
}

// Commit appends the first n bytes of the most recent Writable reservation
// and ends the reservation.
func (r *Ring) Commit(n int) {
	r.last.tail += n
	r.n += n
	r.reserved = false
}

// drained reports whether the consumer may unlink c: everything in it is
// consumed and no producer reservation points into it.
func (r *Ring) drained(c *chunk) bool {
	return c.head == c.tail && (c != r.last || !r.reserved)
}

// unlinkFirst removes the head chunk from the list and returns it.
func (r *Ring) unlinkFirst() *chunk {
	c := r.first
	r.first = c.next
	if r.first == nil {
		r.last = nil
	}
	return c
}

// Write copies p into the ring (the producer path for callers that already
// hold the bytes). It always accepts everything.
func (r *Ring) Write(p []byte) int {
	total := len(p)
	for len(p) > 0 {
		w := r.Writable()
		n := copy(w, p)
		r.Commit(n)
		p = p[n:]
	}
	return total
}

// compact recycles the spent chunk and any leading fully-drained chunks.
// Called at the head of every consumer operation — the point at which any
// previously returned view has expired.
func (r *Ring) compact() {
	if r.spent != nil {
		putChunk(r.spent)
		r.spent = nil
	}
	for r.first != nil && r.drained(r.first) {
		putChunk(r.unlinkFirst())
	}
}

// Take removes and returns up to max buffered bytes as a view into the
// ring's storage — no copy. The view never spans chunks, so it may be
// shorter than both max and Len; callers loop. It returns nil when the
// ring is empty. The view is valid until the next consumer call.
func (r *Ring) Take(max int) []byte {
	r.compact()
	c := r.first
	if c == nil || c.head == c.tail {
		return nil
	}
	n := c.tail - c.head
	if n > max {
		n = max
	}
	v := c.buf[c.head : c.head+n]
	c.head += n
	r.n -= n
	if r.drained(c) {
		// Unlink, but keep it alive backing v.
		r.spent = r.unlinkFirst()
	}
	return v
}

// Views appends up to max buffered bytes to dst as chunk-sized views
// WITHOUT consuming them — the writev gather list. Call Discard with the
// byte count actually written. The views are valid until the next consumer
// call.
func (r *Ring) Views(dst [][]byte, max int) [][]byte {
	r.compact()
	for c := r.first; c != nil && max > 0; c = c.next {
		n := c.tail - c.head
		if n == 0 {
			continue
		}
		if n > max {
			n = max
		}
		dst = append(dst, c.buf[c.head:c.head+n])
		max -= n
	}
	return dst
}

// Discard drops n bytes from the head (after a writev reported them
// written), recycling chunks as they drain.
func (r *Ring) Discard(n int) {
	r.compact()
	for n > 0 {
		c := r.first
		if c == nil {
			return
		}
		k := c.tail - c.head
		if k > n {
			k = n
		}
		if k == 0 {
			return
		}
		c.head += k
		r.n -= k
		n -= k
		if r.drained(c) {
			putChunk(r.unlinkFirst())
		}
	}
}

// Reset drops all buffered bytes and returns every chunk to the pool —
// connection teardown. The Ring is reusable afterwards.
func (r *Ring) Reset() {
	r.compact()
	for c := r.first; c != nil; {
		next := c.next
		putChunk(c)
		c = next
	}
	r.first, r.last, r.n, r.reserved = nil, nil, 0, false
}
