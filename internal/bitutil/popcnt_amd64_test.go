//go:build amd64 && !noasm

package bitutil

import "testing"

// asmKernels exposes the assembly AND+popcount kernel to the differential
// tests when the host supports it; on incapable hosts the map is empty and
// the tests cover the portable kernels only.
func asmKernels() map[string]func(a, b []uint64) int {
	if !asmKernelSupported() {
		return nil
	}
	return map[string]func(a, b []uint64) int{
		"avx512-vpopcntq": popcountAndSliceAVX512,
	}
}

func asmSliceKernels() map[string]func([]uint64) int {
	if !asmKernelSupported() {
		return nil
	}
	return map[string]func([]uint64) int{
		"avx512-vpopcntq": popcountSliceAVX512,
	}
}

func asmBlockKernels() map[string]func(out *[16]int64, a, b *[4][]uint64) {
	if !asmKernelSupported() {
		return nil
	}
	return map[string]func(out *[16]int64, a, b *[4][]uint64){
		"avx512-vpopcntq": popcountAndBlockAsm,
	}
}

// TestKernelSelection pins the init-time choice: the assembly slab and
// block kernels on hosts that support them, the portable kernels
// everywhere else.
func TestKernelSelection(t *testing.T) {
	want := "portable-8way"
	if asmKernelSupported() {
		want = "avx512-vpopcntq"
	}
	if got := Kernel(); got != want {
		t.Fatalf("Kernel() = %q, want %q", got, want)
	}
	if got := activeImpl.asmBlock; got != asmKernelSupported() {
		t.Fatalf("assembly block kernel installed = %v, want %v", got, asmKernelSupported())
	}
}
