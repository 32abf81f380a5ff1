package wire

import (
	"testing"
	"testing/quick"

	"asbestos/internal/handle"
)

func TestRoundTrip(t *testing.T) {
	msg := NewWriter(42).
		Byte(7).
		U16(65535).
		U32(1 << 30).
		U64(1 << 60).
		Handle(handle.Handle(12345)).
		Bytes([]byte("payload")).
		String("text").
		Done()
	op, r := NewReader(msg)
	if op != 42 {
		t.Fatalf("op = %d", op)
	}
	if r.Byte() != 7 || r.U16() != 65535 || r.U32() != 1<<30 || r.U64() != 1<<60 {
		t.Fatal("scalar round trip failed")
	}
	if r.Handle() != handle.Handle(12345) {
		t.Fatal("handle round trip failed")
	}
	if string(r.Bytes()) != "payload" || r.String() != "text" {
		t.Fatal("bytes round trip failed")
	}
	if r.Err() {
		t.Fatal("unexpected error")
	}
}

func TestUnderflowSticky(t *testing.T) {
	op, r := NewReader([]byte{9, 0xAA})
	if op != 9 {
		t.Fatal("op")
	}
	if r.Byte() != 0xAA || r.Err() {
		t.Fatal("first byte should read cleanly")
	}
	if r.U64() != 0 || !r.Err() {
		t.Fatal("underflow must zero and set error")
	}
	// All subsequent reads stay zero/error.
	if r.Byte() != 0 || r.U16() != 0 || r.U32() != 0 || !r.Err() {
		t.Fatal("error must be sticky")
	}
}

func TestEmptyMessage(t *testing.T) {
	op, r := NewReader(nil)
	if op != 0 || !r.Err() {
		t.Fatal("empty message must error")
	}
}

func TestBytesLengthLies(t *testing.T) {
	// A length prefix longer than the remaining buffer must error, not
	// panic or over-read.
	msg := NewWriter(1).U32(1000).Done() // claims 1000 bytes, has none
	_, r := NewReader(msg)
	if r.Bytes() != nil || !r.Err() {
		t.Fatal("lying length must error")
	}
}

func TestBytesCopies(t *testing.T) {
	msg := NewWriter(1).Bytes([]byte("abc")).Done()
	_, r := NewReader(msg)
	b := r.Bytes()
	msg[6] = 'Z' // mutate underlying buffer after read
	if string(b) != "abc" {
		t.Fatal("Bytes must copy out of the message buffer")
	}
}

func TestEmptyBytesAndString(t *testing.T) {
	msg := NewWriter(1).Bytes(nil).String("").Done()
	_, r := NewReader(msg)
	if len(r.Bytes()) != 0 || r.String() != "" || r.Err() {
		t.Fatal("empty bytes/string round trip failed")
	}
}

func TestPropScalarRoundTrip(t *testing.T) {
	f := func(op, b byte, v16 uint16, v32 uint32, v64 uint64, s string) bool {
		msg := NewWriter(op).Byte(b).U16(v16).U32(v32).U64(v64).String(s).Done()
		gotOp, r := NewReader(msg)
		return gotOp == op && r.Byte() == b && r.U16() == v16 &&
			r.U32() == v32 && r.U64() == v64 && r.String() == s && !r.Err()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropTruncationNeverPanics(t *testing.T) {
	f := func(payload []byte, cut uint8) bool {
		msg := NewWriter(5).Bytes(payload).U64(99).Done()
		n := int(cut) % (len(msg) + 1)
		_, r := NewReader(msg[:n])
		r.Bytes()
		r.U64()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// sink keeps TestStringAllocatesOnce's result on the heap, where a
// decoded field lives in real use.
var sink string

// TestStringAllocatesOnce pins String to one allocation: the string itself,
// built from the payload bytes in place rather than from a copy of them.
func TestStringAllocatesOnce(t *testing.T) {
	msg := NewWriter(1).String("a field long enough to need a heap allocation").Done()
	got := testing.AllocsPerRun(100, func() {
		_, r := NewReader(msg)
		sink = r.String()
	})
	if got != 1 {
		t.Fatalf("String allocates %v times per call, want 1", got)
	}
}
