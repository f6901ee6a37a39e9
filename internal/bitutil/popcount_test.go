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

// blockKernelsUnderTest enumerates every 4×4 block kernel reachable in
// this build: the portable one, the dispatched entry point, and (on
// capable amd64 hosts) the assembly kernel directly.
func blockKernelsUnderTest() map[string]func(out *[16]int64, a, b *[4][]uint64) {
	ks := map[string]func(out *[16]int64, a, b *[4][]uint64){
		"portable-block": popcountAndBlockGo,
		"dispatched":     PopcountAndBlock,
	}
	for name, fn := range asmBlockKernels() {
		ks[name] = fn
	}
	return ks
}

// checkBlockKernels runs every block kernel on (a, b) and requires each of
// the 16 sums to equal refPopcountAnd of its pair over the common length.
// out starts dirty so a kernel that leaves a sum unwritten fails.
func checkBlockKernels(t *testing.T, a, b *[4][]uint64) {
	t.Helper()
	n := blockLen(a, b)
	for name, fn := range blockKernelsUnderTest() {
		var out [16]int64
		for k := range out {
			out[k] = -1
		}
		fn(&out, a, b)
		for i := range 4 {
			for j := range 4 {
				if want := int64(refPopcountAnd(a[i][:n], b[j][:n])); out[4*i+j] != want {
					t.Fatalf("block kernel %s: n=%d pair (%d,%d): got %d, want %d", name, n, i, j, out[4*i+j], want)
				}
			}
		}
	}
}

// TestPopcountAndBlockDifferential pins every block kernel to the per-pair
// reference across lengths straddling the 8-word step and its masked tail
// (n < 8, n mod 8 ≠ 0), on slabs that start at different word offsets of
// one backing array, including all-ones words.
func TestPopcountAndBlockDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	backing := make([]uint64, 4096)
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 512, 515} {
		for _, ones := range []bool{false, true} {
			for k := range backing {
				backing[k] = rng.Uint64()
				if ones {
					backing[k] = ^uint64(0)
				}
			}
			var a, b [4][]uint64
			for k := range 4 {
				off := rng.Intn(len(backing) - n)
				a[k] = backing[off : off+n]
				off = rng.Intn(len(backing) - n)
				b[k] = backing[off : off+n]
			}
			checkBlockKernels(t, &a, &b)
			// Unequal lengths: the shortest slab governs.
			if n > 0 {
				b[rng.Intn(4)] = b[0][:rng.Intn(n)]
				checkBlockKernels(t, &a, &b)
			}
		}
	}
}

// FuzzPopcountAndBlock cuts arbitrary bytes into one word backing array
// and reads the eight operand slabs of a 4×4 block from it at offsets the
// fuzzer picks, so the slabs start at different words and may overlap.
// Every block kernel must match refPopcountAnd pair by pair at any length:
// zero, under one 8-word step, and with a tail that is not a multiple of 8.
func FuzzPopcountAndBlock(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint64(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, ^uint64(0)), uint16(1), uint64(0))
	seed := make([]byte, 8*80)
	for i := range seed {
		seed[i] = byte(i * 29)
	}
	f.Add(seed, uint16(13), uint64(0x0706050403020100))
	f.Add(seed, uint16(64), uint64(0x3f2e1d0c3b2a1908))
	f.Fuzz(func(t *testing.T, data []byte, length uint16, offsets uint64) {
		words := make([]uint64, len(data)/8)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		n := int(length) % (len(words) + 1)
		var a, b [4][]uint64
		for k := range 8 {
			off := int(offsets>>(8*k)&0xff) % (len(words) - n + 1)
			slab := words[off : off+n]
			if k < 4 {
				a[k] = slab
			} else {
				b[k-4] = slab
			}
		}
		checkBlockKernels(t, &a, &b)
	})
}
