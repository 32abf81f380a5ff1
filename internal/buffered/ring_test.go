package buffered

import (
	"bytes"
	"math/rand"
	"testing"
)

// drain consumes the whole ring via Take, concatenating the views.
func drain(r *Ring) []byte {
	var out []byte
	for {
		v := r.Take(1 << 20)
		if v == nil {
			return out
		}
		out = append(out, v...)
	}
}

func TestRingWriteTakeRoundTrip(t *testing.T) {
	var r Ring
	want := make([]byte, 5*RingChunkSize+1234)
	rand.New(rand.NewSource(1)).Read(want)
	for off := 0; off < len(want); {
		n := 1000 + off%7777
		if off+n > len(want) {
			n = len(want) - off
		}
		r.Write(want[off : off+n])
		off += n
	}
	if r.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(want))
	}
	if got := drain(&r); !bytes.Equal(got, want) {
		t.Fatalf("round trip corrupted: got %d bytes", len(got))
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d", r.Len())
	}
}

func TestRingWritableCommit(t *testing.T) {
	var r Ring
	w := r.Writable()
	if len(w) < ringMinWritable {
		t.Fatalf("Writable returned %d bytes", len(w))
	}
	copy(w, "hello")
	r.Commit(5)
	// A second reservation in the same chunk continues after the first.
	w = r.Writable()
	copy(w, " ring")
	r.Commit(5)
	if got := string(r.Take(64)); got != "hello ring" {
		t.Fatalf("got %q", got)
	}
}

// TestRingTakeViewSurvivesProducerAppend pins the view-validity contract:
// a Take view stays intact while the producer commits more bytes, until
// the next consumer call.
func TestRingTakeViewSurvivesProducerAppend(t *testing.T) {
	var r Ring
	r.Write(bytes.Repeat([]byte{0xaa}, 100))
	v := r.Take(100)
	// Producer keeps appending into the same chunk and beyond.
	r.Write(bytes.Repeat([]byte{0xbb}, 2*RingChunkSize))
	for _, b := range v {
		if b != 0xaa {
			t.Fatalf("view corrupted by producer append: % x", v[:8])
		}
	}
	if got := drain(&r); len(got) != 2*RingChunkSize {
		t.Fatalf("drained %d", len(got))
	} else {
		for _, b := range got {
			if b != 0xbb {
				t.Fatal("appended bytes corrupted")
			}
		}
	}
}

// TestRingTakeViewAcrossChunkDrain pins the spent-chunk rule: a take that
// fully drains a mid-list chunk keeps that chunk alive backing the view.
func TestRingTakeViewAcrossChunkDrain(t *testing.T) {
	var r Ring
	r.Write(bytes.Repeat([]byte{1}, RingChunkSize)) // chunk A exactly
	r.Write(bytes.Repeat([]byte{2}, 10))            // chunk B
	v := r.Take(RingChunkSize)                      // drains A; A unlinked but spent
	if len(v) != RingChunkSize {
		t.Fatalf("take = %d", len(v))
	}
	for _, b := range v {
		if b != 1 {
			t.Fatal("spent chunk recycled under a live view")
		}
	}
	if got := drain(&r); len(got) != 10 || got[0] != 2 {
		t.Fatalf("tail drain got %d bytes", len(got))
	}
}

// TestRingDrainedHoldsNoChunks pins the package's memory promise: once a
// consumer has drained the ring and no Writable reservation is outstanding,
// every chunk is back in the pool — after Take at the next consumer call
// (the view must stay readable until then), after Discard at once.
func TestRingDrainedHoldsNoChunks(t *testing.T) {
	base := ChunksOutstanding()
	var r Ring
	r.Write([]byte("one request"))
	if got := ChunksOutstanding() - base; got != 1 {
		t.Fatalf("a buffered request holds %d chunks, want 1", got)
	}
	v := r.Take(64)
	if string(v) != "one request" {
		t.Fatalf("got %q", v)
	}
	if got := ChunksOutstanding() - base; got != 1 {
		t.Fatalf("%d chunks while the Take view is live, want 1 (spent)", got)
	}
	if r.Take(64) != nil {
		t.Fatal("drained ring returned data")
	}
	if got := ChunksOutstanding() - base; got != 0 {
		t.Fatalf("drained ring holds %d chunks, want 0", got)
	}
	// The writev side: Discard of everything returns the last chunk too.
	r.Write(make([]byte, RingChunkSize+100))
	r.Discard(r.Len())
	if got := ChunksOutstanding() - base; got != 0 {
		t.Fatalf("discarded ring holds %d chunks, want 0", got)
	}
	// A reservation committed with nothing (EAGAIN) leaves an empty chunk
	// linked; the next consumer call returns it.
	r.Writable()
	r.Commit(0)
	if r.Take(64) != nil {
		t.Fatal("empty commit produced data")
	}
	if got := ChunksOutstanding() - base; got != 0 {
		t.Fatalf("ring holds %d chunks after an empty commit, want 0", got)
	}
}

// TestRingReservationPinsLastChunk is the other half of the rule: while a
// Writable reservation is outstanding the consumer may drain the last chunk
// but must not unlink it — the producer is about to write into it.
func TestRingReservationPinsLastChunk(t *testing.T) {
	base := ChunksOutstanding()
	var r Ring
	r.Write([]byte("head"))
	w := r.Writable() // producer parks in a socket read holding this
	if got := string(r.Take(64)); got != "head" {
		t.Fatalf("got %q", got)
	}
	if r.Take(64) != nil { // a second consumer call: would recycle if it could
		t.Fatal("drained ring returned data")
	}
	if got := ChunksOutstanding() - base; got != 1 {
		t.Fatalf("%d chunks under an outstanding reservation, want 1", got)
	}
	copy(w, "tail")
	r.Commit(4)
	if got := string(r.Take(64)); got != "tail" {
		t.Fatalf("reservation lost: got %q", got)
	}
	r.Reset()
	if got := ChunksOutstanding() - base; got != 0 {
		t.Fatalf("%d chunks after Reset, want 0", got)
	}
}

func TestRingViewsDiscard(t *testing.T) {
	var r Ring
	want := make([]byte, 3*RingChunkSize)
	rand.New(rand.NewSource(2)).Read(want)
	r.Write(want)

	views := r.Views(nil, len(want))
	var gathered []byte
	for _, v := range views {
		gathered = append(gathered, v...)
	}
	if !bytes.Equal(gathered, want) {
		t.Fatal("Views gathered wrong bytes")
	}
	// Partial discard (a short writev), then re-gather the remainder.
	r.Discard(RingChunkSize + 5)
	views = r.Views(nil, len(want))
	gathered = gathered[:0]
	for _, v := range views {
		gathered = append(gathered, v...)
	}
	if !bytes.Equal(gathered, want[RingChunkSize+5:]) {
		t.Fatal("Views after partial Discard wrong")
	}
	r.Discard(r.Len())
	if r.Len() != 0 {
		t.Fatalf("Len = %d after full discard", r.Len())
	}
}

func TestRingViewsCap(t *testing.T) {
	var r Ring
	r.Write(bytes.Repeat([]byte{7}, 1000))
	views := r.Views(nil, 64)
	total := 0
	for _, v := range views {
		total += len(v)
	}
	if total != 64 {
		t.Fatalf("Views(64) gathered %d bytes", total)
	}
	if r.Len() != 1000 {
		t.Fatal("Views consumed bytes")
	}
}

func TestRingReset(t *testing.T) {
	var r Ring
	r.Write(bytes.Repeat([]byte{9}, 4*RingChunkSize))
	r.Take(100)
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len = %d after Reset", r.Len())
	}
	if v := r.Take(10); v != nil {
		t.Fatalf("Take after Reset = %d bytes", len(v))
	}
	// Reusable after Reset.
	r.Write([]byte("again"))
	if got := string(r.Take(10)); got != "again" {
		t.Fatalf("got %q", got)
	}
}

// BenchmarkRingReadPath prices the pooled ring against the append-grown
// slice it replaced on the TCP inbound path: fill with read-sized chunks,
// drain in take-sized bites, repeatedly. The ring's figure of merit is
// allocs/op ≈ 0 in steady state — the append path re-allocates its backing
// array as it grows and strands the capacity when the slice is reset.
func BenchmarkRingReadPath(b *testing.B) {
	const fill = 32 * 1024 // one socket read
	const take = 4096      // one netd opRead
	src := make([]byte, fill)

	b.Run("ring", func(b *testing.B) {
		var r Ring
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := r.Writable()
			n := copy(w, src)
			r.Commit(n)
			for r.Len() > 0 {
				r.Take(take)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = append(buf, src...)
			for len(buf) > 0 {
				n := take
				if n > len(buf) {
					n = len(buf)
				}
				// The pre-ring TakeInbound: copy out, slide the slice.
				out := append([]byte(nil), buf[:n]...)
				_ = out
				buf = buf[n:]
			}
			buf = buf[:0]
		}
	})
}

// BenchmarkRingWritev prices the outbound gather path: many small reply
// writes coalesced into one Views/Discard cycle.
func BenchmarkRingWritev(b *testing.B) {
	reply := make([]byte, 180) // one HTTP response
	var views [][]byte
	var r Ring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			r.Write(reply)
		}
		views = r.Views(views[:0], 1<<20)
		total := 0
		for _, v := range views {
			total += len(v)
		}
		r.Discard(total)
	}
}
