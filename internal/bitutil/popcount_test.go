package bitutil

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

// refPopcountAnd is the trivially-correct scalar reference every kernel is
// pinned against.
func refPopcountAnd(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += bits.OnesCount64(a[i] & b[i])
	}
	return total
}

func refPopcount(xs []uint64) int {
	total := 0
	for _, x := range xs {
		total += bits.OnesCount64(x)
	}
	return total
}

// kernelsUnderTest enumerates every AND+popcount implementation reachable
// in this build: the portable 8-way kernel, the dispatched entry point, and
// (on capable amd64 hosts) the assembly kernel directly.
func kernelsUnderTest() map[string]func(a, b []uint64) int {
	ks := map[string]func(a, b []uint64) int{
		"portable-8way": PopcountAndSlice8,
		"dispatched":    PopcountAndSlice,
	}
	for name, fn := range asmKernels() {
		ks[name] = fn
	}
	return ks
}

func randSlabs(rng *rand.Rand, n int, density float64) (a, b []uint64) {
	a = make([]uint64, n)
	b = make([]uint64, n)
	for i := range a {
		switch {
		case rng.Float64() < density:
			a[i] = rng.Uint64()
			b[i] = rng.Uint64()
		case rng.Intn(2) == 0:
			a[i] = rng.Uint64()
		default:
			b[i] = rng.Uint64()
		}
	}
	return a, b
}

// TestPopcountKernelsDifferential pins every kernel byte-identical to the
// scalar reference across aligned and misaligned-length slabs, equal and
// unequal operand lengths, and all-zero / all-ones extremes. The length
// sweep deliberately straddles every unrolling boundary (4, 8, 16) and the
// scalar tail.
func TestPopcountKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kernels := kernelsUnderTest()
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 1024}
	for _, n := range lengths {
		for _, density := range []float64{0, 0.5, 1} {
			a, b := randSlabs(rng, n, density)
			if density == 1 {
				for i := range a {
					a[i] = ^uint64(0)
					b[i] = ^uint64(0)
				}
			}
			want := refPopcountAnd(a, b)
			for name, fn := range kernels {
				if got := fn(a, b); got != want {
					t.Fatalf("kernel %s: n=%d density=%g: got %d, want %d", name, n, density, got, want)
				}
			}
			// Unequal lengths: the shorter operand governs.
			if n > 0 {
				short := a[:rng.Intn(n)]
				want := refPopcountAnd(short, b)
				for name, fn := range kernels {
					if got := fn(short, b); got != want {
						t.Fatalf("kernel %s: unequal lengths %d/%d: got %d, want %d", name, len(short), n, got, want)
					}
					if got := fn(b, short); got != want {
						t.Fatalf("kernel %s: unequal lengths %d/%d (swapped): got %d, want %d", name, n, len(short), got, want)
					}
				}
			}
		}
	}
}

// TestPopcountKernelsMisalignedBase verifies the kernels on slabs whose
// base address is offset from the original allocation — the assembly path
// must not assume 64-byte (or even 8-word) alignment.
func TestPopcountKernelsMisalignedBase(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	kernels := kernelsUnderTest()
	backing := make([]uint64, 1024)
	for i := range backing {
		backing[i] = rng.Uint64()
	}
	for off := 0; off < 9; off++ {
		for _, n := range []int{0, 1, 8, 16, 33, 100, 256} {
			a := backing[off : off+n]
			b := backing[off+n : off+2*n]
			want := refPopcountAnd(a, b)
			for name, fn := range kernels {
				if got := fn(a, b); got != want {
					t.Fatalf("kernel %s: off=%d n=%d: got %d, want %d", name, off, n, got, want)
				}
			}
		}
	}
}

// TestPopcountSliceKernels pins the single-slab kernels (PopcountSlice8,
// the dispatched PopcountSlice, and the asm path where present).
func TestPopcountSliceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	kernels := map[string]func([]uint64) int{
		"portable-8way": PopcountSlice8,
		"dispatched":    PopcountSlice,
	}
	for name, fn := range asmSliceKernels() {
		kernels[name] = fn
	}
	for _, n := range []int{0, 1, 7, 8, 9, 16, 17, 64, 65, 1000} {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = rng.Uint64()
		}
		want := refPopcount(xs)
		for name, fn := range kernels {
			if got := fn(xs); got != want {
				t.Fatalf("kernel %s: n=%d: got %d, want %d", name, n, got, want)
			}
		}
	}
}

// FuzzPopcountAndSlice feeds arbitrary byte strings (split into two
// arbitrarily-sized word slabs) through every kernel and requires exact
// agreement with the scalar reference — the differential fuzz pinning of
// the asm kernel against the portable one.
func FuzzPopcountAndSlice(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xff}, uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, ^uint64(0)), uint8(4))
	seed := make([]byte, 8*35)
	for i := range seed {
		seed[i] = byte(i * 17)
	}
	f.Add(seed, uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		cut := 0
		if len(words) > 0 {
			cut = int(split) % (len(words) + 1)
		}
		a, b := words[:cut], words[cut:]
		want := refPopcountAnd(a, b)
		for name, fn := range kernelsUnderTest() {
			if got := fn(a, b); got != want {
				t.Fatalf("kernel %s: got %d, want %d (lens %d/%d)", name, got, want, len(a), len(b))
			}
		}
		wantSlice := refPopcount(words)
		if got := PopcountSlice(words); got != wantSlice {
			t.Fatalf("PopcountSlice: got %d, want %d", got, wantSlice)
		}
	})
}
