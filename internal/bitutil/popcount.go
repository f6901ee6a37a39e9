package bitutil

// This file is the slab popcount kernel rung of the dense×dense Gram path:
// portable unrolled kernels plus a runtime-dispatched assembly
// implementation (AVX-512 VPOPCNTQ on capable amd64 hosts, see
// popcnt_amd64.s). The portable 8-way kernel is the mandatory fallback and
// the semantic reference: the dispatched kernel must be byte-identical to
// it on every input (pinned by the differential tests and the fuzz target
// in popcount_test.go).
//
// Selection order:
//
//  1. builds with `-tags noasm` (or non-amd64 targets) never register an
//     assembly kernel — the portable 8-way kernel is the only choice;
//  2. on amd64 the init in popcnt_amd64.go probes CPUID for
//     AVX-512F + AVX-512VPOPCNTDQ and OS zmm-state support and, when all
//     are present, installs the assembly kernel.

import "math/bits"

// kernelImpl is one installed slab-kernel implementation.
type kernelImpl struct {
	name     string
	andSlice func(a, b []uint64) int
	slice    func(xs []uint64) int
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
