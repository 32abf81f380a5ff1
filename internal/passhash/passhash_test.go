package passhash

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
)

// TestBlake2bRFC7693 pins the BLAKE2b core to the RFC 7693 appendix A
// vector: BLAKE2b-512("abc").
func TestBlake2bRFC7693(t *testing.T) {
	want, _ := hex.DecodeString(
		"ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1" +
			"7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923")
	got := make([]byte, 64)
	blake2bSum(got, []byte("abc"))
	if !bytes.Equal(got, want) {
		t.Fatalf("blake2b-512(abc) = %x, want %x", got, want)
	}
}

// TestBlake2bIncremental pins the streaming path (Write across block
// boundaries) against the one-shot path.
func TestBlake2bIncremental(t *testing.T) {
	msg := bytes.Repeat([]byte("asbestos"), 100) // 800 bytes, > 6 blocks
	oneShot := make([]byte, 64)
	blake2bSum(oneShot, msg)
	d := newBlake2b(64)
	for i := 0; i < len(msg); i += 33 {
		end := i + 33
		if end > len(msg) {
			end = len(msg)
		}
		d.Write(msg[i:end])
	}
	streamed := make([]byte, 64)
	d.Sum(streamed)
	if !bytes.Equal(oneShot, streamed) {
		t.Fatalf("streamed digest diverges: %x vs %x", streamed, oneShot)
	}
	// Variable digest sizes are genuinely different hashes (parameter block
	// includes the length), not truncations.
	short := make([]byte, 32)
	blake2bSum(short, msg)
	if bytes.Equal(short, oneShot[:32]) {
		t.Fatal("blake2b-256 must not be a truncation of blake2b-512")
	}
}

// TestArgon2idRFC9106 pins the full Argon2id derivation to the RFC 9106
// §5.3 test vector (t=3, m=32, p=4, with secret and associated data).
func TestArgon2idRFC9106(t *testing.T) {
	password := bytes.Repeat([]byte{0x01}, 32)
	salt := bytes.Repeat([]byte{0x02}, 16)
	secret := bytes.Repeat([]byte{0x03}, 8)
	ad := bytes.Repeat([]byte{0x04}, 12)
	want, _ := hex.DecodeString(
		"0d640df58d78766c08c037a34a8b53c9d01ef0452d75b65eb52520e96b01e659")
	got := argon2id(password, salt, secret, ad,
		Params{Time: 3, Memory: 32, Threads: 4, KeyLen: 32})
	if !bytes.Equal(got, want) {
		t.Fatalf("argon2id vector = %x, want %x", got, want)
	}
}

// TestArenaRecycled pins the pooled block matrix: a derivation that runs in
// an arena an earlier one used must see it zeroed (the fill XORs into its
// output block), so the RFC vector and two unrelated passwords, verified
// back to back, all come out right.
func TestArenaRecycled(t *testing.T) {
	vector := Params{Time: 3, Memory: 32, Threads: 4, KeyLen: 32}
	a := Hash("first password", vector)
	b := Hash("second password", vector)
	for i := 0; i < 3; i++ {
		TestArgon2idRFC9106(t) // same arena length as a and b
		if !Verify("first password", a) || !Verify("second password", b) {
			t.Fatalf("round %d: correct password rejected from a recycled arena", i)
		}
		if Verify("second password", a) || Verify("first password", b) {
			t.Fatalf("round %d: wrong password accepted from a recycled arena", i)
		}
	}
	// And nothing password-derived survives in the pool.
	arena := getArena(32)
	(*arena)[5][7] = 0xdead
	putArena(arena)
	if (*arena)[5][7] != 0 {
		t.Fatal("putArena pooled an arena without clearing it")
	}
}

// TestVerifySteadyStateAllocs: steady-state verifications reuse the arena
// instead of allocating one each. The bound is half an arena per call, not
// zero: sync.Pool drops a quarter of its Puts under the race detector, and
// a collection mid-loop empties it once.
func TestVerifySteadyStateAllocs(t *testing.T) {
	h := Hash("pw", ServerParams)
	Verify("pw", h) // warm the pool
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if !Verify("pw", h) {
			t.Fatal("correct password rejected")
		}
	}
	runtime.ReadMemStats(&after)
	arena := uint64(ServerParams.Memory) * 1024
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if perCall > arena/2 {
		t.Fatalf("Verify allocates %d B/call in steady state; one arena is %d B", perCall, arena)
	}
	t.Logf("Verify: %d B/call (arena %d B)", perCall, arena)
}

func TestHashVerifyRoundTrip(t *testing.T) {
	h := Hash("correct horse", TestParams)
	if !IsHash(h) {
		t.Fatalf("Hash output %q not recognized by IsHash", h)
	}
	if !strings.HasPrefix(h, "$argon2id$v=19$") {
		t.Fatalf("unexpected encoding: %q", h)
	}
	if !Verify("correct horse", h) {
		t.Fatal("correct password rejected")
	}
	if Verify("battery staple", h) {
		t.Fatal("wrong password accepted")
	}
	if Verify("correct horse", "plaintext-pw") || IsHash("plaintext-pw") {
		t.Fatal("plaintext treated as hash")
	}
	// Distinct salts: two hashes of the same password differ.
	if h2 := Hash("correct horse", TestParams); h2 == h {
		t.Fatal("two hashes of one password identical — salt not random")
	}
}

func TestVerifyUsesEncodedParams(t *testing.T) {
	// A hash created under one parameter set verifies regardless of today's
	// defaults — the migration path for parameter upgrades.
	old := Params{Time: 2, Memory: 32, Threads: 2, KeyLen: 24}
	h := Hash("pw", old)
	if !Verify("pw", h) {
		t.Fatal("hash under non-default params rejected")
	}
	if !strings.Contains(h, "m=32,t=2,p=2") {
		t.Fatalf("params not encoded: %q", h)
	}
}

func TestParseRejectsHostileCosts(t *testing.T) {
	for _, enc := range []string{
		"$argon2id$v=19$m=4194304,t=3,p=1$AAAAAAAAAAAAAAAAAAAAAA$AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", // 4 GiB
		"$argon2id$v=19$m=64,t=1000,p=1$AAAAAAAAAAAAAAAAAAAAAA$AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
		"$argon2id$v=18$m=64,t=1,p=1$AAAAAAAAAAAAAAAAAAAAAA$AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA", // bad version
		"$argon2id$v=19$m=64,t=1,p=1$notbase64!!$AAAA",
		"$argon2id$garbage",
	} {
		if Verify("pw", enc) {
			t.Errorf("hostile encoding verified: %q", enc)
		}
	}
}

// hashPrimeSpec is H' exactly as RFC 9106 §3.3 writes it, byte by byte:
// for T > 64, r = ceil(T/32) - 2 digests V_1..V_r each contribute their
// first 32 bytes, and V_{r+1} = H^(T-32r)(V_r) the rest.
func hashPrimeSpec(T int, A []byte) []byte {
	in := binary.LittleEndian.AppendUint32(nil, uint32(T))
	in = append(in, A...)
	if T <= 64 {
		out := make([]byte, T)
		blake2bSum(out, in)
		return out
	}
	r := (T+31)/32 - 2
	v := make([]byte, 64)
	blake2bSum(v, in)
	out := append([]byte(nil), v[:32]...)
	for i := 2; i <= r; i++ {
		next := make([]byte, 64)
		blake2bSum(next, v)
		v = next
		out = append(out, v[:32]...)
	}
	last := make([]byte, T-32*r)
	blake2bSum(last, v)
	return append(out, last...)
}

// TestHashPrimeMatchesSpec holds both H' paths to the spec: the byte path
// at every length class (one digest, the 64-byte edge, chained), and the
// word-chained 1 KiB path initBlocks uses.
func TestHashPrimeMatchesSpec(t *testing.T) {
	var h0 [blake2bSize + 8]byte
	for i := range h0 {
		h0[i] = byte(i * 7)
	}
	for _, in := range [][]byte{nil, h0[:], bytes.Repeat([]byte("argon"), 60)} {
		for _, n := range []int{4, 32, 63, 64, 65, 100, 1024} {
			want := hashPrimeSpec(n, in)
			got := make([]byte, n)
			hashPrime(got, in)
			if !bytes.Equal(got, want) {
				t.Fatalf("hashPrime(%d bytes, %d-byte input) = %x, want %x", n, len(in), got, want)
			}
		}
		var blk argonBlock
		hashPrimeBlock(&blk, in)
		got := make([]byte, 0, 1024)
		for _, w := range blk {
			got = binary.LittleEndian.AppendUint64(got, w)
		}
		if want := hashPrimeSpec(1024, in); !bytes.Equal(got, want) {
			t.Fatalf("hashPrimeBlock(%d-byte input) = %x, want %x", len(in), got, want)
		}
	}
}

// BenchmarkHashPrimeBlock is one lane-start block: H' at 1 KiB over H0.
func BenchmarkHashPrimeBlock(b *testing.B) {
	var h0 [blake2bSize + 8]byte
	var blk argonBlock
	for i := 0; i < b.N; i++ {
		hashPrimeBlock(&blk, h0[:])
	}
}

// BenchmarkVerify is one login's password check at idd's operating point.
func BenchmarkVerify(b *testing.B) {
	h := Hash("correct horse", ServerParams)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Verify("correct horse", h) {
			b.Fatal("correct password rejected")
		}
	}
}
