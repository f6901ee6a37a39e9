//go:build !amd64 || noasm

package bitutil

import "testing"

// No assembly kernels in this build; the differential tests cover the
// portable kernels only.
func asmKernels() map[string]func(a, b []uint64) int { return nil }

func asmSliceKernels() map[string]func([]uint64) int { return nil }

// TestKernelSelection pins the only choice this build has: the portable
// 8-way kernel.
func TestKernelSelection(t *testing.T) {
	if got := Kernel(); got != "portable-8way" {
		t.Fatalf("Kernel() = %q, want %q", got, "portable-8way")
	}
}
