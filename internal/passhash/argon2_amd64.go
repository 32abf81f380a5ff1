package passhash

// compressAVX2 is G (compressCore) with its 16 BlaMka rounds in AVX2
// registers (argon2_amd64.s). out may alias in1.
//
//go:noescape
func compressAVX2(out, in1, in2 *argonBlock, xor bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU executes AVX2 and the OS saves the ymm
// registers across context switches: CPUID leaf 1 OSXSAVE and AVX, XCR0's
// SSE and AVX state bits, and CPUID leaf 7's AVX2.
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}
