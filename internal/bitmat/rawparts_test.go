package bitmat

import (
	"math/rand"
	"testing"
)

// randomColumns builds n columns of random sorted distinct rows in
// [0, activeRows), with column density rising so a hybrid layout emerges
// under DenseAuto.
func randomColumns(rng *rand.Rand, n, activeRows int) [][]int {
	cols := make([][]int, n)
	for j := range cols {
		density := float64(j+1) / float64(n)
		for r := 0; r < activeRows; r++ {
			if rng.Float64() < density {
				cols[j] = append(cols[j], r)
			}
		}
	}
	return cols
}

func TestRawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cols := randomColumns(rng, 12, 300)
	for _, spec := range []int{DenseNever, DenseAuto, 1} {
		orig := PackColumnsThreshold(cols, 300, 64, spec)
		got, err := FromRaw(orig.Raw())
		if err != nil {
			t.Fatalf("spec %d: FromRaw: %v", spec, err)
		}
		if got.WordRows != orig.WordRows || got.Cols != orig.Cols ||
			got.B != orig.B || got.ActiveRows != orig.ActiveRows ||
			got.DenseThresholdSpec() != orig.DenseThresholdSpec() {
			t.Fatalf("spec %d: shape mismatch after round trip", spec)
		}
		for j := 0; j < orig.Cols; j++ {
			if got.IsDense(j) != orig.IsDense(j) {
				t.Fatalf("spec %d: column %d layout changed", spec, j)
			}
		}
		want := GramBlock(orig, orig)
		have := GramBlock(got, got)
		for i := range want.Data {
			if want.Data[i] != have.Data[i] {
				t.Fatalf("spec %d: gram cell %d = %d, want %d", spec, i, have.Data[i], want.Data[i])
			}
		}
	}
}

func TestRawRoundTripEmpty(t *testing.T) {
	orig := PackColumns(nil, 0, 64)
	got, err := FromRaw(orig.Raw())
	if err != nil {
		t.Fatalf("FromRaw on empty matrix: %v", err)
	}
	if got.Cols != 0 || got.WordRows != 0 {
		t.Fatalf("empty round trip gave %d cols, %d word rows", got.Cols, got.WordRows)
	}
}

func TestFromRawRejectsCorruption(t *testing.T) {
	// Two columns with a couple of scattered words stay sparse under an
	// explicit threshold of 3 stored words; two nearly-full columns go dense.
	cols := [][]int{
		{0, 1, 130},
		{5, 70, 199},
		seqRows(0, 180),
		seqRows(10, 190),
	}
	base := PackColumnsThreshold(cols, 200, 64, 3).Raw()
	if len(base.WordRow) == 0 || base.DenseOff == nil {
		t.Fatal("test fixture should be hybrid (both sparse and dense columns)")
	}
	clone := func() RawParts {
		r := base
		r.ColPtr = append([]int(nil), base.ColPtr...)
		r.WordRow = append([]int(nil), base.WordRow...)
		r.Words = append([]uint64(nil), base.Words...)
		r.DenseOff = append([]int(nil), base.DenseOff...)
		r.Slab = append([]uint64(nil), base.Slab...)
		return r
	}
	cases := []struct {
		name   string
		mutate func(*RawParts)
	}{
		{"zero bitmask width", func(r *RawParts) { r.B = 0 }},
		{"oversized bitmask width", func(r *RawParts) { r.B = 65 }},
		{"negative cols", func(r *RawParts) { r.Cols = -1; r.ColPtr = nil }},
		{"word rows off by one", func(r *RawParts) { r.WordRows++ }},
		{"short col ptr", func(r *RawParts) { r.ColPtr = r.ColPtr[:len(r.ColPtr)-1] }},
		{"col ptr not ending at words", func(r *RawParts) { r.ColPtr[len(r.ColPtr)-1]++ }},
		{"decreasing col ptr", func(r *RawParts) { r.ColPtr[1] = r.ColPtr[len(r.ColPtr)-1] + 1 }},
		{"word row stream length mismatch", func(r *RawParts) { r.WordRow = r.WordRow[:len(r.WordRow)-1] }},
		{"word row out of range", func(r *RawParts) { r.WordRow[0] = r.WordRows }},
		{"negative word row", func(r *RawParts) { r.WordRow[0] = -1 }},
		{"unsorted word rows", func(r *RawParts) {
			for j := 0; j+1 < len(r.ColPtr); j++ {
				if r.ColPtr[j+1]-r.ColPtr[j] >= 2 {
					k := r.ColPtr[j]
					r.WordRow[k], r.WordRow[k+1] = r.WordRow[k+1], r.WordRow[k]
					return
				}
			}
			panic("no column with two sparse words")
		}},
		{"dense off length mismatch", func(r *RawParts) { r.DenseOff = r.DenseOff[:len(r.DenseOff)-1] }},
		{"misaligned dense offset", func(r *RawParts) { setFirstDense(r, 1) }},
		{"dense offset past slab", func(r *RawParts) { setFirstDense(r, len(r.Slab)) }},
		{"duplicate dense offset", func(r *RawParts) {
			first := -1
			for j, off := range r.DenseOff {
				if off < 0 {
					continue
				}
				if first < 0 {
					first = off
					continue
				}
				r.DenseOff[j] = first
				return
			}
			panic("fewer than two dense columns")
		}},
		{"slab length mismatch", func(r *RawParts) { r.Slab = append(r.Slab, 0) }},
		{"negative slab nnz", func(r *RawParts) { r.SlabNNZ = -1 }},
		{"slab nnz past slab", func(r *RawParts) { r.SlabNNZ = len(r.Slab) + 1 }},
	}
	for _, c := range cases {
		r := clone()
		c.mutate(&r)
		if _, err := FromRaw(r); err == nil {
			t.Errorf("%s: FromRaw accepted corrupt parts", c.name)
		}
	}
}

func seqRows(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, r)
	}
	return rows
}

func setFirstDense(r *RawParts, off int) {
	for j, o := range r.DenseOff {
		if o >= 0 {
			r.DenseOff[j] = off
			return
		}
	}
	panic("no dense column")
}

// TestFromRawDenseOffAllSparse covers a DenseOff slice present but holding
// only -1 entries (a writer may emit it unconditionally): the matrix must
// normalize back to the nil-denseOff sparse representation.
func TestFromRawDenseOffAllSparse(t *testing.T) {
	cols := [][]int{{0, 3}, {1}}
	r := PackColumnsThreshold(cols, 5, 64, DenseNever).Raw()
	if r.DenseOff != nil {
		t.Fatal("DenseNever matrix should have nil DenseOff")
	}
	r.DenseOff = []int{-1, -1}
	got, err := FromRaw(r)
	if err != nil {
		t.Fatalf("FromRaw: %v", err)
	}
	if got.IsDense(0) || got.IsDense(1) {
		t.Fatal("all-sparse matrix reported a dense column")
	}
}

// rowBitmap packs sorted row indices into a full word-row bitmap — the
// form the index builds its query column in.
func rowBitmap(rows []int, activeRows, b int) []uint64 {
	bitmap := make([]uint64, (activeRows+b-1)/b)
	for _, r := range rows {
		bitmap[r/b] |= 1 << uint(r%b)
	}
	return bitmap
}

// TestColPopcountAnd pins the dense-bitmap kernel to the pairwise kernels
// it replaced on the serve path: against dense and sparse columns, at full
// and narrow packing widths, the gather/slab result equals both the
// sparse×sparse merge of the same two columns and the Gram block cell.
func TestColPopcountAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, b := range []int{64, 13} {
		colsA := randomColumns(rng, 5, 150)
		colsB := randomColumns(rng, 7, 150)
		a := PackColumnsThreshold(colsA, 150, b, DenseNever)
		for _, spec := range []int{1, DenseAuto, DenseNever} {
			p := PackColumnsThreshold(colsB, 150, b, spec)
			sparse := PackColumnsThreshold(colsB, 150, b, DenseNever)
			want := GramBlock(a, p)
			for i := 0; i < a.Cols; i++ {
				bitmap := rowBitmap(colsA[i], 150, b)
				ai := a.view(i)
				for j := 0; j < p.Cols; j++ {
					got := p.ColPopcountAnd(j, bitmap)
					sj := sparse.view(j)
					if merged := mergePopcount(ai.wr, ai.ws, sj.wr, sj.ws); got != merged {
						t.Fatalf("b=%d spec=%d pair (%d,%d) = %d, merge kernel gives %d", b, spec, i, j, got, merged)
					}
					if int64(got) != want.At(i, j) {
						t.Fatalf("b=%d spec=%d pair (%d,%d) = %d, want %d", b, spec, i, j, got, want.At(i, j))
					}
				}
			}
		}
	}
}

func TestColPopcountAndMismatchPanics(t *testing.T) {
	p := PackColumns([][]int{{0}}, 200, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("bitmap length mismatch did not panic")
		}
	}()
	p.ColPopcountAnd(0, make([]uint64, 1))
}
