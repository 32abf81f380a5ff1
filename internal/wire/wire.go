// Package wire provides the tiny binary message codec used by Asbestos
// userspace protocols (netd, idd, ok-dbproxy). Messages are op-tagged byte
// strings carried in kernel IPC payloads; handles travel as 64-bit values
// (knowing a handle value confers no privilege — privilege moves only
// through label grants, paper §5.1).
package wire

import (
	"encoding/binary"

	"asbestos/internal/handle"
)

// Writer builds a message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter starts a message with an op byte.
func NewWriter(op byte) *Writer {
	return &Writer{buf: []byte{op}}
}

// Byte appends one byte.
func (w *Writer) Byte(v byte) *Writer {
	w.buf = append(w.buf, v)
	return w
}

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) *Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) *Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) *Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// Handle appends a handle value.
func (w *Writer) Handle(h handle.Handle) *Writer { return w.U64(uint64(h)) }

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) *Writer {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
	return w
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) *Writer { return w.Bytes([]byte(s)) }

// Done returns the encoded message.
func (w *Writer) Done() []byte { return w.buf }

// Reader decodes a message. All getters return zero values after the first
// underflow; check Err once at the end (sticky-error idiom).
type Reader struct {
	buf []byte
	bad bool
}

// NewReader wraps a payload. Op returns the leading op byte.
func NewReader(b []byte) (op byte, r *Reader) {
	if len(b) == 0 {
		return 0, &Reader{bad: true}
	}
	return b[0], &Reader{buf: b[1:]}
}

func (r *Reader) take(n int) []byte {
	if r.bad || len(r.buf) < n {
		r.bad = true
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Handle reads a handle value.
func (r *Reader) Handle() handle.Handle { return handle.Handle(r.U64()) }

// field reads a length-prefixed byte string in place: the result aliases
// the payload, so callers copy it out.
func (r *Reader) field() []byte {
	n := r.U32()
	if uint32(len(r.buf)) < n {
		r.bad = true
		return nil
	}
	return r.take(int(n))
}

// Bytes reads a length-prefixed byte string (copied).
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.field()...) }

// String reads a length-prefixed string, copying the payload bytes once.
func (r *Reader) String() string { return string(r.field()) }

// Err reports whether any read underflowed.
func (r *Reader) Err() bool { return r.bad }
