// Package bitutil provides low-level bit manipulation helpers used by the
// bitmask-compression stage of SimilarityAtScale (Section III-B of the
// paper): population counts and packed-word sizing.
package bitutil

import (
	"fmt"
	"math/bits"
)

// PopcountAnd returns popcount(x & y), the core scalar operation of the
// Jaccard semiring kernel (Eq. 7 in the paper).
func PopcountAnd(x, y uint64) int {
	return bits.OnesCount64(x & y)
}

// PopcountSlice returns the total number of set bits across the slice. It
// dispatches to the best installed slab kernel (see Kernel): AVX-512
// VPOPCNTQ where available, the portable 8-way unrolling otherwise.
func PopcountSlice(xs []uint64) int {
	return activeImpl.slice(xs)
}

// PopcountAndSlice returns sum_i popcount(a[i] & b[i]) for the common
// prefix of a and b — the dense×dense Gram kernel of the popcount-AND
// semiring. Slices of unequal length are handled by treating the missing
// words as zero. It dispatches to the best installed slab kernel (see
// Kernel): AVX-512 VPOPCNTQ where available, the portable 8-way unrolling
// otherwise; every kernel returns bit-identical results.
func PopcountAndSlice(a, b []uint64) int {
	return activeImpl.andSlice(a, b)
}

// PopcountAndBlock sets out[4i+j] = Σ_k popcount(a[i][k] ∧ b[j][k]) for
// the 4×4 block of column pairs, over the common length of the eight
// slabs (missing words count as zero, as in PopcountAndSlice). It is the
// register-blocked form of PopcountAndSlice: one pass over the word rows
// serves all 16 pairs. It runs the AVX-512 VPOPCNTQ block kernel where
// the assembly slab kernel is installed (see Kernel), the portable one
// otherwise; both return the same sums.
func PopcountAndBlock(out *[16]int64, a, b *[4][]uint64) {
	if activeImpl.asmBlock {
		popcountAndBlockAsm(out, a, b)
		return
	}
	popcountAndBlockGo(out, a, b)
}

// WordsFor returns the number of b-bit words needed to hold n bits.
func WordsFor(n int, b int) int {
	if b <= 0 {
		//gas:invariant word widths are validated packing widths; this guards direct misuse
		panic(fmt.Sprintf("bitutil: non-positive word width %d", b))
	}
	return (n + b - 1) / b
}
