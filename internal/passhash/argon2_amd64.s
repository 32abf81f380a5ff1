#include "textflag.h"

// compressAVX2 is Argon2's G (compressCore in argon2.go) in AVX2. A block is
// eight rows of 16 words, each a 4×4 BlaMka matrix whose rows a, b, c, d
// are one ymm register each: G runs on the matrix's four columns lane by
// lane, VPERMQ turns its diagonals into columns, G runs again, and VPERMQ
// turns them back. Two matrices are in flight at once, in Y0–Y3 and Y4–Y7.
//
// The row pass loads in1 ⊕ in2, runs the eight row matrices and leaves the
// result in a 1 KiB frame. The column pass gathers two column pairs' words
// from the frame (VPERM2I128 builds each register from two rows), runs the
// column matrices, scatters them back to rows and stores
// out = (out & mask) ⊕ t ⊕ in1 ⊕ in2, with mask all ones for the XOR form
// and zero for the overwrite form. A group reads in1 and out before it
// writes the same words of out, so out may alias in1.
//
// Past the prologue's stack check, the code does not branch, and it
// computes no address from block data.
//
// Registers: DI out, SI in1, DX in2; Y8, Y9 products; Y10, Y11 gather and
// scatter; Y12, Y13 the rotate-by-24 and -16 byte shuffles; Y14 the mask.

DATA ·rot24<>+0x00(SB)/8, $0x0201000706050403
DATA ·rot24<>+0x08(SB)/8, $0x0a09080f0e0d0c0b
DATA ·rot24<>+0x10(SB)/8, $0x0201000706050403
DATA ·rot24<>+0x18(SB)/8, $0x0a09080f0e0d0c0b
GLOBL ·rot24<>(SB), (NOPTR+RODATA), $32

DATA ·rot16<>+0x00(SB)/8, $0x0100070605040302
DATA ·rot16<>+0x08(SB)/8, $0x09080f0e0d0c0b0a
DATA ·rot16<>+0x10(SB)/8, $0x0100070605040302
DATA ·rot16<>+0x18(SB)/8, $0x09080f0e0d0c0b0a
GLOBL ·rot16<>(SB), (NOPTR+RODATA), $32

// a += b + 2·lo32(a)·lo32(b), lane by lane.
#define BLAMKA(a, b, t) \
	VPMULUDQ b, a, t; \
	VPADDQ   b, a, a; \
	VPADDQ   t, t, t; \
	VPADDQ   t, a, a

// First half of G: rotations by 32 (dword swap) and 24 (byte shuffle).
#define HALF1(a, b, c, d, t) \
	BLAMKA(a, b, t); \
	VPXOR   a, d, d; \
	VPSHUFD $0xb1, d, d; \
	BLAMKA(c, d, t); \
	VPXOR   c, b, b; \
	VPSHUFB Y12, b, b

// Second half: rotations by 16 (byte shuffle) and 63 (b+b ⊕ b>>63).
#define HALF2(a, b, c, d, t) \
	BLAMKA(a, b, t); \
	VPXOR   a, d, d; \
	VPSHUFB Y13, d, d; \
	BLAMKA(c, d, t); \
	VPXOR   c, b, b; \
	VPADDQ  b, b, t; \
	VPSRLQ  $63, b, b; \
	VPXOR   t, b, b

// Rotate b, c, d left by 1, 2, 3 lanes: the diagonals become columns.
#define DIAG(b, c, d) \
	VPERMQ $0x39, b, b; \
	VPERMQ $0x4e, c, c; \
	VPERMQ $0x93, d, d

#define UNDIAG(b, c, d) \
	VPERMQ $0x93, b, b; \
	VPERMQ $0x4e, c, c; \
	VPERMQ $0x39, d, d

// One BlaMka round on the matrices in Y0–Y3 and Y4–Y7.
#define ROUND \
	HALF1(Y0, Y1, Y2, Y3, Y8); \
	HALF1(Y4, Y5, Y6, Y7, Y9); \
	HALF2(Y0, Y1, Y2, Y3, Y8); \
	HALF2(Y4, Y5, Y6, Y7, Y9); \
	DIAG(Y1, Y2, Y3); \
	DIAG(Y5, Y6, Y7); \
	HALF1(Y0, Y1, Y2, Y3, Y8); \
	HALF1(Y4, Y5, Y6, Y7, Y9); \
	HALF2(Y0, Y1, Y2, Y3, Y8); \
	HALF2(Y4, Y5, Y6, Y7, Y9); \
	UNDIAG(Y1, Y2, Y3); \
	UNDIAG(Y5, Y6, Y7)

// r = in1 ⊕ in2 at byte offset off.
#define LOADXOR(off, r) \
	VMOVDQU off(SI), r; \
	VPXOR   off(DX), r, r

// The two rows starting at byte offset row, from in1 ⊕ in2 to the frame.
#define ROWS(row) \
	LOADXOR((row+0), Y0); \
	LOADXOR((row+32), Y1); \
	LOADXOR((row+64), Y2); \
	LOADXOR((row+96), Y3); \
	LOADXOR((row+128), Y4); \
	LOADXOR((row+160), Y5); \
	LOADXOR((row+192), Y6); \
	LOADXOR((row+224), Y7); \
	ROUND; \
	VMOVDQU Y0, (row+0)(SP); \
	VMOVDQU Y1, (row+32)(SP); \
	VMOVDQU Y2, (row+64)(SP); \
	VMOVDQU Y3, (row+96)(SP); \
	VMOVDQU Y4, (row+128)(SP); \
	VMOVDQU Y5, (row+160)(SP); \
	VMOVDQU Y6, (row+192)(SP); \
	VMOVDQU Y7, (row+224)(SP)

// Bytes col..col+31 of the rows at byte offsets row and row+128 in the
// frame, regrouped: lo gets the first column pair's four words, hi the
// second's.
#define GATHER(row, col, lo, hi) \
	VMOVDQU    (row+col)(SP), Y10; \
	VMOVDQU    (row+128+col)(SP), Y11; \
	VPERM2I128 $0x20, Y11, Y10, lo; \
	VPERM2I128 $0x31, Y11, Y10, hi

// out = (out & mask) ⊕ r ⊕ in1 ⊕ in2 at byte offset off.
#define FOLD(off, r) \
	VPXOR   off(SI), r, r; \
	VPXOR   off(DX), r, r; \
	VPAND   off(DI), Y14, Y8; \
	VPXOR   Y8, r, r; \
	VMOVDQU r, off(DI)

// GATHER's inverse, folded into out.
#define SCATTER(row, col, lo, hi) \
	VPERM2I128 $0x20, hi, lo, Y10; \
	VPERM2I128 $0x31, hi, lo, Y11; \
	FOLD((row+col), Y10); \
	FOLD((row+128+col), Y11)

// The four column pairs starting at byte col of each row, from the frame to
// out.
#define COLUMNS(col) \
	GATHER(0, col, Y0, Y4); \
	GATHER(256, col, Y1, Y5); \
	GATHER(512, col, Y2, Y6); \
	GATHER(768, col, Y3, Y7); \
	ROUND; \
	SCATTER(0, col, Y0, Y4); \
	SCATTER(256, col, Y1, Y5); \
	SCATTER(512, col, Y2, Y6); \
	SCATTER(768, col, Y3, Y7)

// func compressAVX2(out, in1, in2 *argonBlock, xor bool)
TEXT ·compressAVX2(SB), 0, $1024-25
	MOVQ    out+0(FP), DI
	MOVQ    in1+8(FP), SI
	MOVQ    in2+16(FP), DX
	MOVBQZX xor+24(FP), AX
	NEGQ    AX
	MOVQ    AX, X14
	VPBROADCASTQ X14, Y14
	VMOVDQU ·rot24<>(SB), Y12
	VMOVDQU ·rot16<>(SB), Y13

	ROWS(0)
	ROWS(256)
	ROWS(512)
	ROWS(768)

	COLUMNS(0)
	COLUMNS(32)
	COLUMNS(64)
	COLUMNS(96)

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
