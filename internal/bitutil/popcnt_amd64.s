//go:build amd64 && !noasm

#include "textflag.h"

// func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func popcntAndSliceAsm(a, b *uint64, n int) int64
//
// Sum of popcount(a[i] & b[i]) over i in [0, n) with AVX-512 VPOPCNTQ:
// 16 words per iteration on two independent zmm accumulator chains, an
// 8-word cleanup loop, and a scalar POPCNTQ tail for misaligned lengths.
// Loads are unaligned (VMOVDQU64), so callers need no slab alignment.
// Callers must have verified AVX-512F + AVX-512VPOPCNTDQ support.
TEXT ·popcntAndSliceAsm(SB), NOSPLIT, $64-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	XORQ   AX, AX
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4

loop16:
	CMPQ      CX, $16
	JL        loop8
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VPANDQ    (DI), Z0, Z0
	VPANDQ    64(DI), Z1, Z1
	VPOPCNTQ  Z0, Z0
	VPOPCNTQ  Z1, Z1
	VPADDQ    Z0, Z3, Z3
	VPADDQ    Z1, Z4, Z4
	ADDQ      $128, SI
	ADDQ      $128, DI
	SUBQ      $16, CX
	JMP       loop16

loop8:
	CMPQ      CX, $8
	JL        reduce
	VMOVDQU64 (SI), Z0
	VPANDQ    (DI), Z0, Z0
	VPOPCNTQ  Z0, Z0
	VPADDQ    Z0, Z3, Z3
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX

reduce:
	VPADDQ    Z4, Z3, Z3
	VMOVDQU64 Z3, (SP)
	VZEROUPPER
	ADDQ      0(SP), AX
	ADDQ      8(SP), AX
	ADDQ      16(SP), AX
	ADDQ      24(SP), AX
	ADDQ      32(SP), AX
	ADDQ      40(SP), AX
	ADDQ      48(SP), AX
	ADDQ      56(SP), AX

tail:
	TESTQ   CX, CX
	JZ      done
	MOVQ    (SI), DX
	ANDQ    (DI), DX
	POPCNTQ DX, DX
	ADDQ    DX, AX
	ADDQ    $8, SI
	ADDQ    $8, DI
	DECQ    CX
	JMP     tail

done:
	MOVQ AX, ret+24(FP)
	RET

// func popcntSliceAsm(a *uint64, n int) int64
//
// Sum of popcount(a[i]) over i in [0, n); same structure as
// popcntAndSliceAsm without the AND operand.
TEXT ·popcntSliceAsm(SB), NOSPLIT, $64-24
	MOVQ   a+0(FP), SI
	MOVQ   n+8(FP), CX
	XORQ   AX, AX
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4

loop16:
	CMPQ     CX, $16
	JL       loop8
	VPOPCNTQ (SI), Z0
	VPOPCNTQ 64(SI), Z1
	VPADDQ   Z0, Z3, Z3
	VPADDQ   Z1, Z4, Z4
	ADDQ     $128, SI
	SUBQ     $16, CX
	JMP      loop16

loop8:
	CMPQ     CX, $8
	JL       reduce
	VPOPCNTQ (SI), Z0
	VPADDQ   Z0, Z3, Z3
	ADDQ     $64, SI
	SUBQ     $8, CX

reduce:
	VPADDQ    Z4, Z3, Z3
	VMOVDQU64 Z3, (SP)
	VZEROUPPER
	ADDQ      0(SP), AX
	ADDQ      8(SP), AX
	ADDQ      16(SP), AX
	ADDQ      24(SP), AX
	ADDQ      32(SP), AX
	ADDQ      40(SP), AX
	ADDQ      48(SP), AX
	ADDQ      56(SP), AX

tail:
	TESTQ   CX, CX
	JZ      done
	POPCNTQ (SI), DX
	ADDQ    DX, AX
	ADDQ    $8, SI
	DECQ    CX
	JMP     tail

done:
	MOVQ AX, ret+16(FP)
	RET

// BLOCKROW accumulates one a vector against the four b vectors Z4–Z7:
// c_j += popcount(a ∧ b_j) lane by lane.
#define BLOCKROW(a, c0, c1, c2, c3) \
	VPANDQ   Z4, a, Z8  \
	VPANDQ   Z5, a, Z9  \
	VPANDQ   Z6, a, Z10 \
	VPANDQ   Z7, a, Z11 \
	VPOPCNTQ Z8, Z8     \
	VPOPCNTQ Z9, Z9     \
	VPOPCNTQ Z10, Z10   \
	VPOPCNTQ Z11, Z11   \
	VPADDQ   Z8, c0, c0 \
	VPADDQ   Z9, c1, c1 \
	VPADDQ   Z10, c2, c2 \
	VPADDQ   Z11, c3, c3

// BLOCKSTEP runs BLOCKROW for the four a vectors Z0–Z3; accumulator
// Z16+4i+j holds pair (i, j).
#define BLOCKSTEP \
	BLOCKROW(Z0, Z16, Z17, Z18, Z19) \
	BLOCKROW(Z1, Z20, Z21, Z22, Z23) \
	BLOCKROW(Z2, Z24, Z25, Z26, Z27) \
	BLOCKROW(Z3, Z28, Z29, Z30, Z31)

// PAIRSUM folds the accumulators x and y into dst, 128-bit lane by lane:
// dst = [x0+x1, y0+y1, x2+x3, y2+y3, …].
#define PAIRSUM(x, y, dst) \
	VPUNPCKLQDQ y, x, dst \
	VPUNPCKHQDQ y, x, Z8  \
	VPADDQ      Z8, dst, dst

// LANESUM folds x and y, whose 128-bit lanes each hold a pair of partial
// sums, into dst = [x.l0+x.l1, x.l2+x.l3, y.l0+y.l1, y.l2+y.l3].
#define LANESUM(x, y, dst) \
	VSHUFI64X2 $0x88, y, x, Z8 \
	VSHUFI64X2 $0xdd, y, x, Z9 \
	VPADDQ     Z9, Z8, dst

// func popcntAndBlockAsm(out *[16]int64, a, b *[4]*uint64, n int)
//
// out[4i+j] = Σ_k popcount(a[i][k] & b[j][k]) over k in [0, n) for four
// a slabs against four b slabs. Each 8-word step loads the eight slabs'
// words once into Z0–Z7 and feeds every loaded vector to four of the 16
// zmm accumulators Z16–Z31. The last n mod 8 words are one more step on
// zero-masked loads, which never touch memory past the slabs' ends. The
// 16 accumulators are then reduced lane-wise (PAIRSUM, LANESUM) into two
// vectors of eight sums each. Loads are unaligned; callers must have
// verified AVX-512F + AVX-512VPOPCNTDQ support.
TEXT ·popcntAndBlockAsm(SB), NOSPLIT, $0-32
	MOVQ a+8(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ b+16(FP), AX
	MOVQ 0(AX), R12
	MOVQ 8(AX), R13
	MOVQ 16(AX), SI
	MOVQ 24(AX), DI
	MOVQ n+24(FP), CX
	XORQ DX, DX
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31

step8:
	CMPQ      CX, $8
	JL        tail
	VMOVDQU64 (R8)(DX*1), Z0
	VMOVDQU64 (R9)(DX*1), Z1
	VMOVDQU64 (R10)(DX*1), Z2
	VMOVDQU64 (R11)(DX*1), Z3
	VMOVDQU64 (R12)(DX*1), Z4
	VMOVDQU64 (R13)(DX*1), Z5
	VMOVDQU64 (SI)(DX*1), Z6
	VMOVDQU64 (DI)(DX*1), Z7
	BLOCKSTEP
	ADDQ      $64, DX
	SUBQ      $8, CX
	JMP       step8

tail:
	TESTQ       CX, CX
	JZ          reduce
	MOVQ        $1, AX
	SHLQ        CX, AX
	DECQ        AX
	KMOVW       AX, K1
	VMOVDQU64.Z (R8)(DX*1), K1, Z0
	VMOVDQU64.Z (R9)(DX*1), K1, Z1
	VMOVDQU64.Z (R10)(DX*1), K1, Z2
	VMOVDQU64.Z (R11)(DX*1), K1, Z3
	VMOVDQU64.Z (R12)(DX*1), K1, Z4
	VMOVDQU64.Z (R13)(DX*1), K1, Z5
	VMOVDQU64.Z (SI)(DX*1), K1, Z6
	VMOVDQU64.Z (DI)(DX*1), K1, Z7
	BLOCKSTEP

reduce:
	PAIRSUM(Z16, Z17, Z0)
	PAIRSUM(Z18, Z19, Z1)
	PAIRSUM(Z20, Z21, Z2)
	PAIRSUM(Z22, Z23, Z3)
	PAIRSUM(Z24, Z25, Z4)
	PAIRSUM(Z26, Z27, Z5)
	PAIRSUM(Z28, Z29, Z6)
	PAIRSUM(Z30, Z31, Z7)
	LANESUM(Z0, Z1, Z10)
	LANESUM(Z2, Z3, Z11)
	LANESUM(Z4, Z5, Z12)
	LANESUM(Z6, Z7, Z13)
	LANESUM(Z10, Z11, Z0)
	LANESUM(Z12, Z13, Z1)
	MOVQ      out+0(FP), AX
	VMOVDQU64 Z0, (AX)
	VMOVDQU64 Z1, 64(AX)
	VZEROUPPER
	RET
