//go:build amd64 && !noasm

package bitutil

// Declarations for the assembly routines in popcnt_amd64.s.
func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)
func popcntAndSliceAsm(a, b *uint64, n int) int64
func popcntSliceAsm(a *uint64, n int) int64

//go:noescape
func popcntAndBlockAsm(out *[16]int64, a, b *[4]*uint64, n int)

// avx512Impl is the assembly kernel, registered when the host supports it.
var avx512Impl = &kernelImpl{
	name:     "avx512-vpopcntq",
	andSlice: popcountAndSliceAVX512,
	slice:    popcountSliceAVX512,
	asmBlock: true,
}

func popcountAndSliceAVX512(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	return int(popcntAndSliceAsm(&a[0], &b[0], n))
}

func popcountSliceAVX512(xs []uint64) int {
	if len(xs) == 0 {
		return 0
	}
	return int(popcntSliceAsm(&xs[0], len(xs)))
}

// popcountAndBlockAsm is PopcountAndBlock on the AVX-512 block kernel.
func popcountAndBlockAsm(out *[16]int64, a, b *[4][]uint64) {
	n := blockLen(a, b)
	if n == 0 {
		*out = [16]int64{}
		return
	}
	pa := [4]*uint64{&a[0][0], &a[1][0], &a[2][0], &a[3][0]}
	pb := [4]*uint64{&b[0][0], &b[1][0], &b[2][0], &b[3][0]}
	popcntAndBlockAsm(out, &pa, &pb, n)
}

// asmKernelSupported reports whether the host can run the VPOPCNTQ kernel:
// AVX-512F and AVX-512VPOPCNTDQ in CPUID leaf 7, with the OS saving
// xmm/ymm/zmm state (OSXSAVE plus the XCR0 bits 1, 2 and 5–7).
func asmKernelSupported() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if c1&osxsave == 0 {
		return false
	}
	const xcr0AVX512 = 0xe6 // SSE | AVX | opmask | zmm_hi256 | hi16_zmm
	if eax, _ := xgetbv0(); eax&xcr0AVX512 != xcr0AVX512 {
		return false
	}
	_, b7, c7, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	const avx512vpopcntdq = 1 << 14
	return b7&avx512f != 0 && c7&avx512vpopcntdq != 0
}

func init() {
	if asmKernelSupported() {
		activeImpl = avx512Impl
	}
}
