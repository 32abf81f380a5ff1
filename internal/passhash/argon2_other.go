//go:build !amd64

package passhash

// Only amd64 has a G kernel; everywhere else G is compressCore.

func haveAVX2() bool { return false }

func compressAVX2(out, in1, in2 *argonBlock, xor bool) {
	panic("passhash: no AVX2 kernel on this architecture")
}
