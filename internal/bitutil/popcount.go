package bitutil

// This file is the slab popcount kernel rung of the dense×dense Gram path:
// portable unrolled kernels plus a runtime-dispatched assembly
// implementation (AVX-512 VPOPCNTQ on capable amd64 hosts, see
// popcnt_amd64.s). The portable 8-way kernel is the mandatory fallback and
// the semantic reference: the dispatched kernel must be byte-identical to
// it on every input (pinned by the differential tests and the fuzz target
// in popcount_test.go).
//
// Each kernel comes with a 4×4 block form (PopcountAndBlock): the 16 sums
// of four columns against four columns in one pass over their word rows,
// so each loaded word feeds four pairs instead of one.
//
// Selection order:
//
//  1. builds with `-tags noasm` (or non-amd64 targets) never register an
//     assembly kernel — the portable 8-way slab kernel and the portable
//     block kernel (popcountAndBlockGo) are the only choice;
//  2. on amd64 the init in popcnt_amd64.go probes CPUID for
//     AVX-512F + AVX-512VPOPCNTDQ and OS zmm-state support and, when all
//     are present, installs the assembly slab and block kernels together.

import "math/bits"

// kernelImpl is one installed slab-kernel implementation.
type kernelImpl struct {
	name     string
	andSlice func(a, b []uint64) int
	slice    func(xs []uint64) int
	// asmBlock selects the assembly block kernel in PopcountAndBlock. It
	// is a flag rather than a func value because an indirect call would
	// move the caller's block operands to the heap.
	asmBlock bool
}

var portableImpl = &kernelImpl{
	name:     "portable-8way",
	andSlice: PopcountAndSlice8,
	slice:    PopcountSlice8,
}

// activeImpl is the kernel the dispatched entry points use. It starts as
// the portable kernel; on amd64 the detection init in popcnt_amd64.go
// replaces it once with the assembly kernel, before any caller runs.
var activeImpl = portableImpl

// Kernel reports the name of the slab popcount kernel the dispatched entry
// points currently use: "portable-8way" or "avx512-vpopcntq".
func Kernel() string { return activeImpl.name }

// PopcountAndSlice8 is the portable 8-way unrolled AND+popcount kernel:
// eight independent accumulator chains keep eight POPCNT results in flight
// per iteration, hiding the instruction latency that serialises narrower
// unrollings. It is the mandatory fallback and the semantic reference of
// the dispatched kernel. Slices of unequal length are handled by treating
// missing words as zero.
func PopcountAndSlice8(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var a0, a1, a2, a3, a4, a5, a6, a7 int
	i := 0
	for ; i+8 <= n; i += 8 {
		a0 += bits.OnesCount64(a[i] & b[i])
		a1 += bits.OnesCount64(a[i+1] & b[i+1])
		a2 += bits.OnesCount64(a[i+2] & b[i+2])
		a3 += bits.OnesCount64(a[i+3] & b[i+3])
		a4 += bits.OnesCount64(a[i+4] & b[i+4])
		a5 += bits.OnesCount64(a[i+5] & b[i+5])
		a6 += bits.OnesCount64(a[i+6] & b[i+6])
		a7 += bits.OnesCount64(a[i+7] & b[i+7])
	}
	for ; i < n; i++ {
		a0 += bits.OnesCount64(a[i] & b[i])
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// PopcountSlice8 is the 8-way unrolled single-slab popcount, the portable
// form of the dense-column cardinality kernel (bitmat.ColPopcounts).
func PopcountSlice8(xs []uint64) int {
	var a0, a1, a2, a3, a4, a5, a6, a7 int
	i := 0
	for ; i+8 <= len(xs); i += 8 {
		a0 += bits.OnesCount64(xs[i])
		a1 += bits.OnesCount64(xs[i+1])
		a2 += bits.OnesCount64(xs[i+2])
		a3 += bits.OnesCount64(xs[i+3])
		a4 += bits.OnesCount64(xs[i+4])
		a5 += bits.OnesCount64(xs[i+5])
		a6 += bits.OnesCount64(xs[i+6])
		a7 += bits.OnesCount64(xs[i+7])
	}
	for ; i < len(xs); i++ {
		a0 += bits.OnesCount64(xs[i])
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// blockLen returns the common length of the eight operand slabs of a 4×4
// block: the shortest governs, as in PopcountAndSlice.
func blockLen(a, b *[4][]uint64) int {
	n := len(a[0])
	for k := range 4 {
		n = min(n, len(a[k]), len(b[k]))
	}
	return n
}

// popcountAndBlockGo is the portable 4×4 block kernel and the semantic
// reference of the assembly one: out[4i+j] = Σ_k popcount(a[i][k] ∧ b[j][k])
// over the common length of the eight slabs. It runs two passes of two a
// columns against the four b columns, which keeps eight accumulators live
// instead of sixteen; on 512-word columns in L1 that is about 1.25× the
// speed of 16 single-pair PopcountAndSlice8 calls.
func popcountAndBlockGo(out *[16]int64, a, b *[4][]uint64) {
	n := blockLen(a, b)
	b0, b1, b2, b3 := b[0][:n], b[1][:n], b[2][:n], b[3][:n]
	for i := 0; i < 4; i += 2 {
		x, y := a[i][:n], a[i+1][:n]
		var c0, c1, c2, c3, d0, d1, d2, d3 int
		for k := range x {
			xk, yk := x[k], y[k]
			w0, w1, w2, w3 := b0[k], b1[k], b2[k], b3[k]
			c0 += bits.OnesCount64(xk & w0)
			c1 += bits.OnesCount64(xk & w1)
			c2 += bits.OnesCount64(xk & w2)
			c3 += bits.OnesCount64(xk & w3)
			d0 += bits.OnesCount64(yk & w0)
			d1 += bits.OnesCount64(yk & w1)
			d2 += bits.OnesCount64(yk & w2)
			d3 += bits.OnesCount64(yk & w3)
		}
		out[4*i], out[4*i+1], out[4*i+2], out[4*i+3] = int64(c0), int64(c1), int64(c2), int64(c3)
		out[4*i+4], out[4*i+5], out[4*i+6], out[4*i+7] = int64(d0), int64(d1), int64(d2), int64(d3)
	}
}
