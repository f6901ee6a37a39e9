package bitutil

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestPopcountAnd(t *testing.T) {
	if got := PopcountAnd(0xFF00, 0x0FF0); got != 4 {
		t.Errorf("PopcountAnd(0xFF00,0x0FF0) = %d, want 4", got)
	}
	if got := PopcountAnd(0, ^uint64(0)); got != 0 {
		t.Errorf("PopcountAnd(0,~0) = %d, want 0", got)
	}
}

func TestPopcountAndProperty(t *testing.T) {
	f := func(x, y uint64) bool {
		return PopcountAnd(x, y) == bits.OnesCount64(x&y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPopcountSlices(t *testing.T) {
	a := []uint64{0xF, 0xF0, 0}
	b := []uint64{0x3, 0xFF}
	if got := PopcountSlice(a); got != 8 {
		t.Errorf("PopcountSlice = %d, want 8", got)
	}
	if got := PopcountAndSlice(a, b); got != 2+4 {
		t.Errorf("PopcountAndSlice = %d, want 6", got)
	}
	// Unequal lengths treat missing words as zero: symmetric.
	if PopcountAndSlice(a, b) != PopcountAndSlice(b, a) {
		t.Error("PopcountAndSlice not symmetric for unequal lengths")
	}
}

func TestWordsFor(t *testing.T) {
	cases := []struct{ n, b, want int }{
		{0, 64, 0}, {1, 64, 1}, {64, 64, 1}, {65, 64, 2}, {128, 64, 2},
		{129, 64, 3}, {31, 32, 1}, {32, 32, 1}, {33, 32, 2},
	}
	for _, c := range cases {
		if got := WordsFor(c.n, c.b); got != c.want {
			t.Errorf("WordsFor(%d,%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}

func TestWordsForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WordsFor(1,0) did not panic")
		}
	}()
	WordsFor(1, 0)
}
