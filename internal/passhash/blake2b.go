// Package passhash is the credential-hashing layer behind idd: Argon2id
// (RFC 9106) over an in-repo BLAKE2b (RFC 7693), plus the PHC string
// encoding ($argon2id$...) idd stores in the okws_users table. The stack
// runs hermetic — no module may be fetched at build time — so the
// primitives live here rather than in golang.org/x/crypto; both are pinned
// to the RFCs' test vectors in this package's tests.
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

// newBlake2b starts a digest of the given size (1..64 bytes).
func newBlake2b(size int) *blake2bState {
	if size < 1 || size > blake2bSize {
		panic("passhash: bad blake2b digest size")
	}
	d := &blake2bState{size: size}
	d.h = blake2bIV
	// Parameter block word 0: digest length, key length 0, fanout 1, depth 1.
	d.h[0] ^= uint64(size) | 1<<16 | 1<<24
	return d
}

func (d *blake2bState) Write(p []byte) {
	// Compress lazily: the buffered block is only flushed when more input
	// arrives, so the final (possibly full) block is compressed with the
	// last-block flag set in Sum.
	for len(p) > 0 {
		if d.n == blake2bBlock {
			d.t += blake2bBlock
			d.compress(d.buf[:], false)
			d.n = 0
		}
		c := copy(d.buf[d.n:], p)
		d.n += c
		p = p[c:]
	}
}

// Sum finalizes into out (length d.size). The state is spent afterwards.
func (d *blake2bState) Sum(out []byte) {
	d.t += uint64(d.n)
	for i := d.n; i < blake2bBlock; i++ {
		d.buf[i] = 0
	}
	d.compress(d.buf[:], true)
	var tmp [blake2bSize]byte
	for i, v := range d.h {
		binary.LittleEndian.PutUint64(tmp[i*8:], v)
	}
	copy(out, tmp[:d.size])
}

func (d *blake2bState) compress(block []byte, final bool) {
	var m [16]uint64
	for i := range m {
		m[i] = binary.LittleEndian.Uint64(block[i*8:])
	}
	var v [16]uint64
	copy(v[:8], d.h[:])
	copy(v[8:], blake2bIV[:])
	v[12] ^= d.t
	// v[13] would carry the high counter word; inputs here are < 2^64 bytes.
	if final {
		v[14] = ^v[14]
	}
	for r := 0; r < 12; r++ {
		s := &blake2bSigma[r]
		blake2bG(&v, 0, 4, 8, 12, m[s[0]], m[s[1]])
		blake2bG(&v, 1, 5, 9, 13, m[s[2]], m[s[3]])
		blake2bG(&v, 2, 6, 10, 14, m[s[4]], m[s[5]])
		blake2bG(&v, 3, 7, 11, 15, m[s[6]], m[s[7]])
		blake2bG(&v, 0, 5, 10, 15, m[s[8]], m[s[9]])
		blake2bG(&v, 1, 6, 11, 12, m[s[10]], m[s[11]])
		blake2bG(&v, 2, 7, 8, 13, m[s[12]], m[s[13]])
		blake2bG(&v, 3, 4, 9, 14, m[s[14]], m[s[15]])
	}
	for i := 0; i < 8; i++ {
		d.h[i] ^= v[i] ^ v[i+8]
	}
}

func blake2bG(v *[16]uint64, a, b, c, d int, x, y uint64) {
	v[a] = v[a] + v[b] + x
	v[d] = bits.RotateLeft64(v[d]^v[a], -32)
	v[c] = v[c] + v[d]
	v[b] = bits.RotateLeft64(v[b]^v[c], -24)
	v[a] = v[a] + v[b] + y
	v[d] = bits.RotateLeft64(v[d]^v[a], -16)
	v[c] = v[c] + v[d]
	v[b] = bits.RotateLeft64(v[b]^v[c], -63)
}

// blake2bSum writes the size-byte digest of the concatenated inputs.
func blake2bSum(out []byte, in ...[]byte) {
	d := newBlake2b(len(out))
	for _, b := range in {
		d.Write(b)
	}
	d.Sum(out)
}
