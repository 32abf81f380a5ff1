// Package passhash is the credential-hashing layer behind idd: Argon2id
// (RFC 9106) over an in-repo BLAKE2b (RFC 7693), plus the PHC string
// encoding ($argon2id$...) idd stores in the okws_users table. The stack
// runs hermetic — no module may be fetched at build time — so the
// primitives live here rather than in golang.org/x/crypto; both are pinned
// to the RFCs' test vectors in this package's tests.
//
// Argon2's compression G has two kernels, chosen once at start-up from the
// CPU (CPUID and XGETBV, no option): on amd64 with AVX2, compressAVX2 in
// argon2_amd64.s; everywhere else, compressCore, the pure-Go G. The tests
// run the RFC vector under both and fuzz the assembly against compressCore
// word for word. G takes the same time on every input: neither kernel
// branches on block data or computes an address from it. (Argon2id's
// data-dependent half still picks its reference blocks from block data,
// as RFC 9106 specifies.)
//
// Verification is constant-time over the derived tag (crypto/subtle), so a
// stored hash leaks nothing through idd's comparison timing. The work
// parameters ride in the encoded string, giving stored credentials a
// migration path: rows hashed under yesterday's parameters still verify.
// A stored string that is not a PHC Argon2id hash (IsHash) verifies
// nothing.
package passhash

import (
	"encoding/binary"
	"math/bits"
)

// BLAKE2b (RFC 7693), unkeyed, with the variable digest size (1..64 bytes)
// Argon2's H' construction needs. Only the pieces Argon2id uses are
// implemented: sequential hashing, no key, no salt/personal parameters.

const blake2bBlock = 128

// blake2bSize is the maximum (and Argon2's default) digest length.
const blake2bSize = 64

var blake2bIV = [8]uint64{
	0x6a09e667f3bcc908, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
	0x510e527fade682d1, 0x9b05688c2b3e6c1f, 0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
}

// blake2bSigma is the message schedule; rounds 10 and 11 repeat rounds 0
// and 1 (BLAKE2b runs 12 rounds).
var blake2bSigma = [12][16]byte{
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	{14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
	{11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
	{7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
	{9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
	{2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
	{12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
	{13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
	{6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
	{10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	{14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
}

// blake2bState is a streaming unkeyed BLAKE2b instance.
type blake2bState struct {
	h    [8]uint64
	t    uint64 // bytes compressed so far (messages here are far below 2^64)
	buf  [blake2bBlock]byte
	n    int
	size int
}

// blake2bInit is the chaining value a size-byte digest starts from: the IV
// with parameter block word 0 (digest length, key length 0, fanout 1,
// depth 1) folded in.
func blake2bInit(size int) [8]uint64 {
	h := blake2bIV
	h[0] ^= uint64(size) | 1<<16 | 1<<24
	return h
}

// newBlake2b starts a digest of the given size (1..64 bytes).
func newBlake2b(size int) *blake2bState {
	if size < 1 || size > blake2bSize {
		panic("passhash: bad blake2b digest size")
	}
	return &blake2bState{h: blake2bInit(size), size: size}
}

func (d *blake2bState) Write(p []byte) {
	// Compress lazily: the buffered block is only flushed when more input
	// arrives, so the final (possibly full) block is compressed with the
	// last-block flag set in Sum.
	for len(p) > 0 {
		if d.n == blake2bBlock {
			d.t += blake2bBlock
			d.compress(false)
			d.n = 0
		}
		c := copy(d.buf[d.n:], p)
		d.n += c
		p = p[c:]
	}
}

// Sum finalizes into out (length d.size). The state is spent afterwards.
func (d *blake2bState) Sum(out []byte) {
	d.finish()
	var tmp [blake2bSize]byte
	for i, v := range d.h {
		binary.LittleEndian.PutUint64(tmp[i*8:], v)
	}
	copy(out, tmp[:d.size])
}

// finish compresses the last block, leaving the digest in d.h as
// little-endian words. The state is spent afterwards.
func (d *blake2bState) finish() {
	d.t += uint64(d.n)
	clear(d.buf[d.n:])
	d.compress(true)
}

// compress runs F over the buffered block.
func (d *blake2bState) compress(final bool) {
	var m [16]uint64
	for i := range m {
		m[i] = binary.LittleEndian.Uint64(d.buf[i*8:])
	}
	blake2bCompress(&d.h, &m, d.t, final)
}

// blake2bCompress is BLAKE2b's F (RFC 7693 §3.2) over message words m,
// byte counter t and the last-block flag. The 16-word working vector lives
// in locals, so each G is straight-line arithmetic on them; the counter's
// high word is left zero, as inputs here are far below 2^64 bytes.
func blake2bCompress(h *[8]uint64, m *[16]uint64, t uint64, final bool) {
	v0, v1, v2, v3, v4, v5, v6, v7 := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
	v8, v9, v10, v11 := blake2bIV[0], blake2bIV[1], blake2bIV[2], blake2bIV[3]
	v12, v13, v14, v15 := blake2bIV[4]^t, blake2bIV[5], blake2bIV[6], blake2bIV[7]
	if final {
		v14 = ^v14
	}
	for r := range blake2bSigma {
		s := &blake2bSigma[r]
		// Columns.
		v0 += v4 + m[s[0]]
		v12 = bits.RotateLeft64(v12^v0, -32)
		v8 += v12
		v4 = bits.RotateLeft64(v4^v8, -24)
		v0 += v4 + m[s[1]]
		v12 = bits.RotateLeft64(v12^v0, -16)
		v8 += v12
		v4 = bits.RotateLeft64(v4^v8, -63)

		v1 += v5 + m[s[2]]
		v13 = bits.RotateLeft64(v13^v1, -32)
		v9 += v13
		v5 = bits.RotateLeft64(v5^v9, -24)
		v1 += v5 + m[s[3]]
		v13 = bits.RotateLeft64(v13^v1, -16)
		v9 += v13
		v5 = bits.RotateLeft64(v5^v9, -63)

		v2 += v6 + m[s[4]]
		v14 = bits.RotateLeft64(v14^v2, -32)
		v10 += v14
		v6 = bits.RotateLeft64(v6^v10, -24)
		v2 += v6 + m[s[5]]
		v14 = bits.RotateLeft64(v14^v2, -16)
		v10 += v14
		v6 = bits.RotateLeft64(v6^v10, -63)

		v3 += v7 + m[s[6]]
		v15 = bits.RotateLeft64(v15^v3, -32)
		v11 += v15
		v7 = bits.RotateLeft64(v7^v11, -24)
		v3 += v7 + m[s[7]]
		v15 = bits.RotateLeft64(v15^v3, -16)
		v11 += v15
		v7 = bits.RotateLeft64(v7^v11, -63)

		// Diagonals.
		v0 += v5 + m[s[8]]
		v15 = bits.RotateLeft64(v15^v0, -32)
		v10 += v15
		v5 = bits.RotateLeft64(v5^v10, -24)
		v0 += v5 + m[s[9]]
		v15 = bits.RotateLeft64(v15^v0, -16)
		v10 += v15
		v5 = bits.RotateLeft64(v5^v10, -63)

		v1 += v6 + m[s[10]]
		v12 = bits.RotateLeft64(v12^v1, -32)
		v11 += v12
		v6 = bits.RotateLeft64(v6^v11, -24)
		v1 += v6 + m[s[11]]
		v12 = bits.RotateLeft64(v12^v1, -16)
		v11 += v12
		v6 = bits.RotateLeft64(v6^v11, -63)

		v2 += v7 + m[s[12]]
		v13 = bits.RotateLeft64(v13^v2, -32)
		v8 += v13
		v7 = bits.RotateLeft64(v7^v8, -24)
		v2 += v7 + m[s[13]]
		v13 = bits.RotateLeft64(v13^v2, -16)
		v8 += v13
		v7 = bits.RotateLeft64(v7^v8, -63)

		v3 += v4 + m[s[14]]
		v14 = bits.RotateLeft64(v14^v3, -32)
		v9 += v14
		v4 = bits.RotateLeft64(v4^v9, -24)
		v3 += v4 + m[s[15]]
		v14 = bits.RotateLeft64(v14^v3, -16)
		v9 += v14
		v4 = bits.RotateLeft64(v4^v9, -63)
	}
	h[0] ^= v0 ^ v8
	h[1] ^= v1 ^ v9
	h[2] ^= v2 ^ v10
	h[3] ^= v3 ^ v11
	h[4] ^= v4 ^ v12
	h[5] ^= v5 ^ v13
	h[6] ^= v6 ^ v14
	h[7] ^= v7 ^ v15
}

// blake2bSum writes the size-byte digest of the concatenated inputs.
func blake2bSum(out []byte, in ...[]byte) {
	d := newBlake2b(len(out))
	for _, b := range in {
		d.Write(b)
	}
	d.Sum(out)
}
