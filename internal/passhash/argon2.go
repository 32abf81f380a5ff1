package passhash

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"
)

// Argon2id (RFC 9106). The memory is a matrix of 1 KiB blocks, Threads
// lanes by (Memory/Threads) columns, filled Time passes over four
// synchronization slices; the first two slices of the first pass index
// data-independently (the argon2i side, resisting side-channel leakage of
// the password), the rest data-dependently (the argon2d side, resisting
// time–memory trade-offs).

const (
	argon2Version = 0x13
	argon2idMode  = 2
	syncPoints    = 4
	// blockWords is one memory block: 128 × uint64 = 1 KiB.
	blockWords = 128
)

type argonBlock [blockWords]uint64

// Params are the Argon2id cost knobs. Memory is in KiB (= blocks).
type Params struct {
	Time    uint32
	Memory  uint32
	Threads uint8
	KeyLen  uint32
}

// DefaultParams is RFC 9106's second recommended option (§4): 64 MiB,
// t=3, p=4 — the production setting for a real deployment.
var DefaultParams = Params{Time: 3, Memory: 64 * 1024, Threads: 4, KeyLen: 32}

// ServerParams is idd's operating point in the simulated stack: 128 KiB,
// one pass, one lane. Heavy enough that credential stuffing pays a real
// per-guess cost, light enough that a benchmark provisioning and logging in
// thousands of accounts stays interactive. A real deployment would raise
// this to DefaultParams; stored hashes carry their own parameters, so the
// upgrade needs no migration.
var ServerParams = Params{Time: 1, Memory: 128, Threads: 1, KeyLen: 32}

// TestParams trades memory-hardness for speed (64 KiB, one pass, one
// lane): the simulated stack's tests and benchmarks log users in by the
// thousand, and the algorithm (not its wall-clock cost) is what they pin.
var TestParams = Params{Time: 1, Memory: 64, Threads: 1, KeyLen: 32}

func (p Params) normalize() Params {
	if p.Time < 1 {
		p.Time = 1
	}
	if p.Threads < 1 {
		p.Threads = 1
	}
	if p.KeyLen < 4 {
		p.KeyLen = 32
	}
	if p.Memory < 8*uint32(p.Threads) {
		p.Memory = 8 * uint32(p.Threads)
	}
	return p
}

// Key derives a p.KeyLen-byte Argon2id key from password and salt.
func Key(password, salt []byte, p Params) []byte {
	p = p.normalize()
	return argon2id(password, salt, nil, nil, p)
}

// argon2id is the full derivation, including the secret (pepper) and
// associated-data inputs the RFC test vector exercises.
func argon2id(password, salt, secret, ad []byte, p Params) []byte {
	h0 := initHash(password, salt, secret, ad, p)
	// Round the block count down to a multiple of 4×lanes (slice boundaries
	// must align across lanes).
	memory := p.Memory / (syncPoints * uint32(p.Threads)) * (syncPoints * uint32(p.Threads))
	arena := getArena(memory)
	B := *arena
	initBlocks(&h0, B, uint32(p.Threads))
	processBlocks(B, p.Time, memory, uint32(p.Threads))
	key := extractKey(B, memory, uint32(p.Threads), p.KeyLen)
	putArena(arena)
	return key
}

// arenaPool recycles the block matrix between derivations: at ServerParams
// it is 128 KiB, and allocating and zeroing one per login made the
// collector the largest single cost of a cold login. Arenas in the pool are
// all-zero — the fill XORs into its output block, so it needs that on
// entry, and a used arena holds password-derived state that must not
// outlive the derivation. The pool is not keyed by size: an arena of the
// wrong length (hashes stored under other parameters) is dropped.
//
// Measured with the AVX2 G, on login.cold over 10 interleaved pairs
// against a make-per-derivation build (2-core x86-64 box): CPU per request
// 221 vs 275 µs, p95 768 vs 1099 µs, traced gc_pause_ms 9.6 vs 27.3 and
// alloc_bytes_per_req 39 vs 170 kB, the pool ahead in 9, 10, 10 and 10
// pairs of ten.
var arenaPool sync.Pool // of *[]argonBlock

func getArena(blocks uint32) *[]argonBlock {
	if a, _ := arenaPool.Get().(*[]argonBlock); a != nil && len(*a) == int(blocks) {
		return a
	}
	a := make([]argonBlock, blocks)
	return &a
}

func putArena(a *[]argonBlock) {
	clear(*a)
	arenaPool.Put(a)
}

// initHash computes H0 (RFC 9106 §3.2): BLAKE2b-512 over the parameters
// and length-prefixed inputs.
func initHash(password, salt, secret, ad []byte, p Params) [blake2bSize + 8]byte {
	var le [4]byte
	u32 := func(d *blake2bState, v uint32) {
		binary.LittleEndian.PutUint32(le[:], v)
		d.Write(le[:])
	}
	d := newBlake2b(blake2bSize)
	u32(d, uint32(p.Threads))
	u32(d, p.KeyLen)
	u32(d, p.Memory)
	u32(d, p.Time)
	u32(d, argon2Version)
	u32(d, argon2idMode)
	for _, in := range [][]byte{password, salt, secret, ad} {
		u32(d, uint32(len(in)))
		d.Write(in)
	}
	var h0 [blake2bSize + 8]byte
	d.Sum(h0[:blake2bSize])
	return h0
}

// hashPrime is H' (RFC 9106 §3.3): variable-length output built from
// chained BLAKE2b digests, over bytes. It derives extractKey's tag; the
// 1 KiB first blocks come from hashPrimeBlock.
func hashPrime(out []byte, in []byte) {
	var le [4]byte
	binary.LittleEndian.PutUint32(le[:], uint32(len(out)))
	if len(out) <= blake2bSize {
		d := newBlake2b(len(out))
		d.Write(le[:])
		d.Write(in)
		d.Sum(out)
		return
	}
	var v [blake2bSize]byte
	d := newBlake2b(blake2bSize)
	d.Write(le[:])
	d.Write(in)
	d.Sum(v[:])
	copy(out, v[:32])
	out = out[32:]
	for len(out) > blake2bSize {
		blake2bSum(v[:], v[:])
		copy(out, v[:32])
		out = out[32:]
	}
	blake2bSum(out, v[:])
}

// hashPrimeBlock is H' at the 1 KiB that fills one block, chained in
// words: each 64-byte digest V_i is the next hash's whole message (eight
// words and zero padding, one final block), and its first half is the next
// four words of out; the last digest fills the final eight.
func hashPrimeBlock(out *argonBlock, in []byte) {
	var le [4]byte
	binary.LittleEndian.PutUint32(le[:], blockWords*8)
	d := newBlake2b(blake2bSize)
	d.Write(le[:])
	d.Write(in)
	d.finish()
	v, init := d.h, blake2bInit(blake2bSize)
	var m [16]uint64
	for i := 0; i < blockWords-8; i += 4 {
		copy(out[i:i+4], v[:4])
		copy(m[:8], v[:])
		v = init
		blake2bCompress(&v, &m, blake2bSize, true)
	}
	copy(out[blockWords-8:], v[:])
}

// initBlocks fills each lane's first two blocks of the zeroed matrix B
// from H0 (§3.4).
func initBlocks(h0 *[blake2bSize + 8]byte, B []argonBlock, threads uint32) {
	laneLen := uint32(len(B)) / threads
	for lane := uint32(0); lane < threads; lane++ {
		j := lane * laneLen
		binary.LittleEndian.PutUint32(h0[blake2bSize+4:], lane)
		for idx := uint32(0); idx < 2; idx++ {
			binary.LittleEndian.PutUint32(h0[blake2bSize:], idx)
			hashPrimeBlock(&B[j+idx], h0[:])
		}
	}
}

// processBlocks runs the fill passes. Lanes within a slice are independent
// (the RFC parallelizes them); they run sequentially here — idd hashes
// with one lane, and correctness, not saturation of extra cores inside a
// single hash, is what the trusted path needs.
func processBlocks(B []argonBlock, time, memory, threads uint32) {
	laneLen := memory / threads
	segLen := laneLen / syncPoints
	for n := uint32(0); n < time; n++ {
		for slice := uint32(0); slice < syncPoints; slice++ {
			for lane := uint32(0); lane < threads; lane++ {
				processSegment(B, n, slice, lane, time, memory, threads, laneLen, segLen)
			}
		}
	}
}

func processSegment(B []argonBlock, n, slice, lane, time, memory, threads, laneLen, segLen uint32) {
	var addresses, in, zero argonBlock
	dataIndependent := n == 0 && slice < syncPoints/2
	if dataIndependent {
		in[0] = uint64(n)
		in[1] = uint64(lane)
		in[2] = uint64(slice)
		in[3] = uint64(memory)
		in[4] = uint64(time)
		in[5] = argon2idMode
	}
	index := uint32(0)
	if n == 0 && slice == 0 {
		index = 2 // lane blocks 0 and 1 came from H0
		if dataIndependent {
			in[6]++
			compressBlockInto(&addresses, &in, &zero)
			compressBlockInto(&addresses, &addresses, &zero)
		}
	}
	offset := lane*laneLen + slice*segLen + index
	for index < segLen {
		prev := offset - 1
		if index == 0 && slice == 0 {
			prev += laneLen // wrap to the lane's last block
		}
		var random uint64
		if dataIndependent {
			if index%blockWords == 0 {
				in[6]++
				compressBlockInto(&addresses, &in, &zero)
				compressBlockInto(&addresses, &addresses, &zero)
			}
			random = addresses[index%blockWords]
		} else {
			random = B[prev][0]
		}
		ref := refIndex(random, laneLen, segLen, threads, n, slice, lane, index)
		compressBlock(&B[offset], &B[prev], &B[ref])
		index, offset = index+1, offset+1
	}
}

// refIndex maps the 64-bit pseudo-random value to the referenced block
// (RFC 9106 §3.4.1.2: the reference area and the non-uniform mapping that
// biases references toward recent blocks).
func refIndex(random uint64, laneLen, segLen, threads, n, slice, lane, index uint32) uint32 {
	refLane := uint32(random>>32) % threads
	if n == 0 && slice == 0 {
		refLane = lane
	}
	area, start := 3*segLen, ((slice+1)%syncPoints)*segLen
	if lane == refLane {
		area += index
	}
	if n == 0 {
		area, start = slice*segLen, 0
		if slice == 0 || lane == refLane {
			area += index
		}
	}
	if index == 0 || lane == refLane {
		area--
	}
	// z = area - 1 - (area * (J1² >> 32) >> 32)
	p := random & 0xFFFFFFFF
	p = (p * p) >> 32
	p = (p * uint64(area)) >> 32
	return refLane*laneLen + uint32((uint64(start)+uint64(area)-(p+1))%uint64(laneLen))
}

// compressBlock is Argon2's G (§3.5) in its XOR form for filling memory:
// out ^= P-permuted(in1 ⊕ in2) ⊕ (in1 ⊕ in2). First-pass targets are zero,
// later passes must fold into the existing block (version 0x13).
func compressBlock(out, in1, in2 *argonBlock) {
	compress(out, in1, in2, true)
}

// compressBlockInto is G in its overwrite form, used for the address blocks
// of data-independent segments. The second address call aliases out and in1
// (addresses = G(addresses, zero)); under the XOR form the in1 term would
// cancel against out and degrade G to the bare permutation.
func compressBlockInto(out, in1, in2 *argonBlock) {
	compress(out, in1, in2, false)
}

// useAVX2 selects G's kernel. It is set once, from the CPU; tests swap it
// to run each kernel.
var useAVX2 = haveAVX2()

func compress(out, in1, in2 *argonBlock, xor bool) {
	if useAVX2 {
		compressAVX2(out, in1, in2, xor)
		return
	}
	compressCore(out, in1, in2, xor)
}

// compressCore is G in pure Go: the kernel wherever AVX2 is absent, and the
// reference that amd64's compressAVX2 (argon2_amd64.s) is tested against
// word for word. out may alias in1.
func compressCore(out, in1, in2 *argonBlock, xor bool) {
	var t argonBlock
	for i := range t {
		t[i] = in1[i] ^ in2[i]
	}
	// Row rounds: each run of 16 consecutive words.
	for i := 0; i < blockWords; i += 16 {
		blamkaRow((*[16]uint64)(t[i : i+16]))
	}
	// Column rounds: pairs of words with stride 16 (the 128-bit registers
	// of the spec's column view).
	for i := 0; i < 16; i += 2 {
		blamkaColumn((*[114]uint64)(t[i : i+114]))
	}
	if xor {
		for i := range t {
			out[i] ^= in1[i] ^ in2[i] ^ t[i]
		}
		return
	}
	for i := range t {
		out[i] = in1[i] ^ in2[i] ^ t[i]
	}
}

// blamkaRow applies the BLAKE2b round with the multiplicative BlaMka G to
// 16 consecutive words: G on the four columns of the 4×4 matrix they form,
// then on its four diagonals. The words are worked on in locals.
func blamkaRow(v *[16]uint64) {
	v0, v1, v2, v3, v4, v5, v6, v7 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
	v8, v9, v10, v11, v12, v13, v14, v15 := v[8], v[9], v[10], v[11], v[12], v[13], v[14], v[15]
	v0, v4, v8, v12 = blamka(v0, v4, v8, v12, 32, 24)
	v0, v4, v8, v12 = blamka(v0, v4, v8, v12, 16, 63)
	v1, v5, v9, v13 = blamka(v1, v5, v9, v13, 32, 24)
	v1, v5, v9, v13 = blamka(v1, v5, v9, v13, 16, 63)
	v2, v6, v10, v14 = blamka(v2, v6, v10, v14, 32, 24)
	v2, v6, v10, v14 = blamka(v2, v6, v10, v14, 16, 63)
	v3, v7, v11, v15 = blamka(v3, v7, v11, v15, 32, 24)
	v3, v7, v11, v15 = blamka(v3, v7, v11, v15, 16, 63)
	v0, v5, v10, v15 = blamka(v0, v5, v10, v15, 32, 24)
	v0, v5, v10, v15 = blamka(v0, v5, v10, v15, 16, 63)
	v1, v6, v11, v12 = blamka(v1, v6, v11, v12, 32, 24)
	v1, v6, v11, v12 = blamka(v1, v6, v11, v12, 16, 63)
	v2, v7, v8, v13 = blamka(v2, v7, v8, v13, 32, 24)
	v2, v7, v8, v13 = blamka(v2, v7, v8, v13, 16, 63)
	v3, v4, v9, v14 = blamka(v3, v4, v9, v14, 32, 24)
	v3, v4, v9, v14 = blamka(v3, v4, v9, v14, 16, 63)
	v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7] = v0, v1, v2, v3, v4, v5, v6, v7
	v[8], v[9], v[10], v[11], v[12], v[13], v[14], v[15] = v8, v9, v10, v11, v12, v13, v14, v15
}

// blamkaColumn is blamkaRow on the column view: the 16 words are the pairs
// at offsets 0, 16, …, 112 of t, which starts at the column's first word.
func blamkaColumn(t *[114]uint64) {
	v0, v1, v2, v3, v4, v5, v6, v7 := t[0], t[1], t[16], t[17], t[32], t[33], t[48], t[49]
	v8, v9, v10, v11, v12, v13, v14, v15 := t[64], t[65], t[80], t[81], t[96], t[97], t[112], t[113]
	v0, v4, v8, v12 = blamka(v0, v4, v8, v12, 32, 24)
	v0, v4, v8, v12 = blamka(v0, v4, v8, v12, 16, 63)
	v1, v5, v9, v13 = blamka(v1, v5, v9, v13, 32, 24)
	v1, v5, v9, v13 = blamka(v1, v5, v9, v13, 16, 63)
	v2, v6, v10, v14 = blamka(v2, v6, v10, v14, 32, 24)
	v2, v6, v10, v14 = blamka(v2, v6, v10, v14, 16, 63)
	v3, v7, v11, v15 = blamka(v3, v7, v11, v15, 32, 24)
	v3, v7, v11, v15 = blamka(v3, v7, v11, v15, 16, 63)
	v0, v5, v10, v15 = blamka(v0, v5, v10, v15, 32, 24)
	v0, v5, v10, v15 = blamka(v0, v5, v10, v15, 16, 63)
	v1, v6, v11, v12 = blamka(v1, v6, v11, v12, 32, 24)
	v1, v6, v11, v12 = blamka(v1, v6, v11, v12, 16, 63)
	v2, v7, v8, v13 = blamka(v2, v7, v8, v13, 32, 24)
	v2, v7, v8, v13 = blamka(v2, v7, v8, v13, 16, 63)
	v3, v4, v9, v14 = blamka(v3, v4, v9, v14, 32, 24)
	v3, v4, v9, v14 = blamka(v3, v4, v9, v14, 16, 63)
	t[0], t[1], t[16], t[17], t[32], t[33], t[48], t[49] = v0, v1, v2, v3, v4, v5, v6, v7
	t[64], t[65], t[80], t[81], t[96], t[97], t[112], t[113] = v8, v9, v10, v11, v12, v13, v14, v15
}

// blamka is half of BLAKE2b's G with each addition a + b replaced by
// a + b + 2·lo32(a)·lo32(b) (RFC 9106 §3.6); G is blamka with rotations
// 32 and 24, then again with 16 and 63. Halves keep it inlinable.
func blamka(a, b, c, d uint64, r1, r2 int) (uint64, uint64, uint64, uint64) {
	a += b + 2*uint64(uint32(a))*uint64(uint32(b))
	d = bits.RotateLeft64(d^a, -r1)
	c += d + 2*uint64(uint32(c))*uint64(uint32(d))
	b = bits.RotateLeft64(b^c, -r2)
	return a, b, c, d
}

// extractKey folds each lane's final block together and H'-hashes the
// result to the key length (§3.6).
func extractKey(B []argonBlock, memory, threads, keyLen uint32) []byte {
	laneLen := memory / threads
	last := &B[memory-1]
	for lane := uint32(0); lane < threads-1; lane++ {
		for i, v := range B[lane*laneLen+laneLen-1] {
			last[i] ^= v
		}
	}
	var raw [1024]byte
	for i, v := range last {
		binary.LittleEndian.PutUint64(raw[i*8:], v)
	}
	key := make([]byte, keyLen)
	hashPrime(key, raw[:])
	return key
}

// --- PHC string encoding ---

const phcPrefix = "$argon2id$"

var b64 = base64.RawStdEncoding

// Hash derives a fresh-salted Argon2id hash of password and encodes it as
// a PHC string: $argon2id$v=19$m=...,t=...,p=...$salt$tag.
func Hash(password string, p Params) string {
	p = p.normalize()
	salt := make([]byte, 16)
	if _, err := rand.Read(salt); err != nil {
		panic("passhash: no entropy: " + err.Error())
	}
	tag := Key([]byte(password), salt, p)
	return fmt.Sprintf("%sv=%d$m=%d,t=%d,p=%d$%s$%s",
		phcPrefix, argon2Version, p.Memory, p.Time, p.Threads,
		b64.EncodeToString(salt), b64.EncodeToString(tag))
}

// IsHash reports whether a stored credential is a PHC-encoded Argon2id
// hash; Verify fails for anything else.
func IsHash(s string) bool { return strings.HasPrefix(s, phcPrefix) }

// Verify re-derives the tag from password under the encoded string's own
// parameters and compares in constant time. Malformed encodings verify
// false.
func Verify(password, encoded string) bool {
	p, salt, tag, ok := parse(encoded)
	if !ok {
		return false
	}
	got := argon2id([]byte(password), salt, nil, nil, p)
	return subtle.ConstantTimeCompare(got, tag) == 1
}

// parse splits a PHC string into parameters, salt and tag. Each number is
// a canonical decimal (see decimal) with nothing after it.
func parse(encoded string) (Params, []byte, []byte, bool) {
	rest, ok := strings.CutPrefix(encoded, phcPrefix)
	v, rest, ok1 := strings.Cut(rest, "$")
	costs, rest, ok2 := strings.Cut(rest, "$")
	salt64, tag64, ok3 := strings.Cut(rest, "$")
	m, rest, _ := strings.Cut(costs, ",")
	t, threads, _ := strings.Cut(rest, ",")
	version, okv := decimal(v, "v=")
	memory, okm := decimal(m, "m=")
	time, okt := decimal(t, "t=")
	lanes, okp := decimal(threads, "p=")
	if !ok || !ok1 || !ok2 || !ok3 || !okv || !okm || !okt || !okp ||
		version != argon2Version || lanes == 0 || lanes > 255 {
		return Params{}, nil, nil, false
	}
	// Reject absurd cost parameters before deriving: a hostile stored row
	// must not be able to make idd allocate unbounded memory.
	if memory > 1<<21 || time > 64 {
		return Params{}, nil, nil, false
	}
	salt, err := b64.DecodeString(salt64)
	if err != nil {
		return Params{}, nil, nil, false
	}
	tag, err := b64.DecodeString(tag64)
	if err != nil || len(tag) < 4 {
		return Params{}, nil, nil, false
	}
	p := Params{Time: time, Memory: memory, Threads: uint8(lanes), KeyLen: uint32(len(tag))}
	return p.normalize(), salt, tag, true
}

// decimal parses the number after key in s, such as "64" in "m=64", as a
// canonical decimal uint32: digits only, no sign, no leading zero.
func decimal(s, key string) (uint32, bool) {
	digits, ok := strings.CutPrefix(s, key)
	if !ok || len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 32)
	return uint32(n), err == nil
}
