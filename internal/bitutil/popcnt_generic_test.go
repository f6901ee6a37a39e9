//go:build !amd64 || noasm

package bitutil

import "testing"

// No assembly kernels in this build; the differential tests cover the
// portable kernels only.
func asmKernels() map[string]func(a, b []uint64) int { return nil }

func asmSliceKernels() map[string]func([]uint64) int { return nil }

func asmBlockKernels() map[string]func(out *[16]int64, a, b *[4][]uint64) { return nil }

// TestKernelSelection pins the only choice this build has: the portable
// 8-way slab kernel and the portable block kernel.
func TestKernelSelection(t *testing.T) {
	if got := Kernel(); got != "portable-8way" {
		t.Fatalf("Kernel() = %q, want %q", got, "portable-8way")
	}
	if activeImpl.asmBlock {
		t.Fatal("assembly block kernel installed in a build without one")
	}
}
