package bitmat

import (
	"context"
	"testing"

	"genomeatscale/internal/sparse"
)

func maskTestMatrix(cols int) *Packed {
	var entries []PackedEntry
	state := uint64(0x1234abcd)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	const wordRows = 9
	for j := 0; j < cols; j++ {
		for k := 0; k < wordRows; k++ {
			if next()%3 == 0 {
				entries = append(entries, PackedEntry{WordRow: k, Col: j, Word: next()})
			}
		}
	}
	return FromEntries(entries, wordRows, cols, 64, wordRows*64)
}

// TestGramMasked pins the prescreening contract of the masked kernel:
// surviving pairs accumulate bit-identically to the unmasked kernel and
// pruned pairs stay exactly 0, for one and several workers and both
// triangle cell types.
func TestGramMasked(t *testing.T) {
	const cols = 97
	p := maskTestMatrix(cols)
	full := sparse.MustDense[int64](cols, cols)
	p.GramAccumulate(full)

	mask := NewPairMask(cols)
	kept := 0
	for i := 0; i < cols; i++ {
		for j := i; j < cols; j++ {
			if (i*31+j*17)%5 == 0 {
				mask.Set(i, j)
				kept++
			}
		}
	}
	if got := mask.CountUpper(); got != int64(kept) {
		t.Fatalf("CountUpper = %d, want %d", got, kept)
	}

	for _, workers := range []int{1, 4} {
		narrow, wide := NewTriangle[uint32](cols), NewTriangle[int64](cols)
		if err := GramAccumulateTriangle(context.Background(), p, narrow, workers, nil, mask); err != nil {
			t.Fatal(err)
		}
		if err := GramAccumulateTriangle(context.Background(), p, wide, workers, nil, mask); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				want := int64(0)
				if mask.Pair(i, j) {
					want = full.At(i, j)
				}
				if got := int64(narrow.at(i, j)); got != want {
					t.Fatalf("workers=%d: masked uint32 B[%d][%d] = %d, want %d", workers, i, j, got, want)
				}
				if got := wide.at(i, j); got != want {
					t.Fatalf("workers=%d: masked int64 B[%d][%d] = %d, want %d", workers, i, j, got, want)
				}
			}
		}
	}
}

func TestPairMaskRanges(t *testing.T) {
	m := NewPairMask(130)
	m.Set(3, 127)
	if !m.Pair(127, 3) || !m.Pair(3, 127) {
		t.Fatal("Set must be symmetric")
	}
	if !m.AnyInRange(3, 120, 130) || m.AnyInRange(3, 0, 127) || m.AnyInRange(3, 128, 130) {
		t.Fatal("AnyInRange word-boundary handling is wrong")
	}
	if !m.AnyInRange(127, 0, m.N()) || m.AnyInRange(64, 0, m.N()) {
		t.Fatal("AnyInRange over all partners is wrong")
	}
	m.Set(64, 64)
	if !m.AnyInRange(64, 0, m.N()) || !m.Pair(64, 64) {
		t.Fatal("diagonal set must count as a partner")
	}
}
