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

// TestKernelSelection pins the init-time choice: the assembly kernel on
// hosts that support it, the portable 8-way kernel everywhere else.
func TestKernelSelection(t *testing.T) {
	want := "portable-8way"
	if asmKernelSupported() {
		want = "avx512-vpopcntq"
	}
	if got := Kernel(); got != want {
		t.Fatalf("Kernel() = %q, want %q", got, want)
	}
}
