package bitmat

import (
	"context"
	"math/rand"
	"testing"

	"genomeatscale/internal/sparse"
)

// at returns cell (i, j) of the symmetric matrix, in either order.
func (t *Triangle[C]) at(i, j int) C {
	if i > j {
		i, j = j, i
	}
	return t.Row(i)[j-i]
}

// TestTriangleLayout pins the row-by-row storage: row i starts at
// i·n − i(i−1)/2 and holds n − i cells, and the rows tile Data exactly.
func TestTriangleLayout(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64} {
		tr := NewTriangle[uint32](n)
		if len(tr.Data) != n*(n+1)/2 {
			t.Fatalf("n=%d: %d cells, want %d", n, len(tr.Data), n*(n+1)/2)
		}
		next := 0
		for i := 0; i < n; i++ {
			row := tr.Row(i)
			if len(row) != n-i || &row[0] != &tr.Data[next] {
				t.Fatalf("n=%d: row %d has %d cells at a wrong offset", n, i, len(row))
			}
			next += n - i
		}
	}
}

// TestTriangleExpandRows checks that every band and every chunk of a band
// expands into the full symmetric rows, whatever the band bounds.
func TestTriangleExpandRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 53
	tr := NewTriangle[int64](n)
	for k := range tr.Data {
		tr.Data[k] = rng.Int63n(1 << 40)
	}
	for trial := 0; trial < 40; trial++ {
		lo := rng.Intn(n)
		rows := 1 + rng.Intn(n-lo)
		dst := make([]int64, rows*n)
		// Expand in uneven chunks, as a parallel caller would.
		for r := 0; r < rows; {
			k := min(1+rng.Intn(9), rows-r)
			tr.ExpandRows(dst[r*n:(r+k)*n], lo+r, k)
			r += k
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				if got, want := dst[i*n+j], tr.at(lo+i, j); got != want {
					t.Fatalf("band [%d,%d): cell (%d,%d) = %d, want %d", lo, lo+rows, lo+i, j, got, want)
				}
			}
		}
	}
}

// FuzzTriangleGram checks that triangle accumulation over several batches
// equals the upper triangle of the dense accumulation, for both cell
// types, workers ∈ {1, 2, 3}, a nil or random PairMask (pruned pairs stay
// 0) and each DenseThreshold policy.
func FuzzTriangleGram(f *testing.F) {
	for policy := uint8(0); policy < 3; policy++ {
		for workers := uint8(0); workers < 3; workers++ {
			f.Add(int64(policy)*3+int64(workers), workers, policy, workers%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, workers, policy uint8, masked bool) {
		w := 1 + int(workers%3)
		spec := []int{DenseAuto, DenseNever, 1}[policy%3]
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(150)
		batches := 1 + rng.Intn(4)
		maskBits := 1 + rng.Intn(64)

		var mask *PairMask
		if masked {
			mask = NewPairMask(cols)
			for i := 0; i < cols; i++ {
				for j := i; j < cols; j++ {
					if rng.Intn(3) == 0 {
						mask.Set(i, j)
					}
				}
			}
		}
		dense := sparse.MustDense[int64](cols, cols)
		narrow, wide := NewTriangle[uint32](cols), NewTriangle[int64](cols)
		arena := NewArena()
		ctx := context.Background()
		for l := 0; l < batches; l++ {
			rows := 1 + rng.Intn(300)
			p := PackColumnsThreshold(randomRowsPerCol(rng, rows, cols, rng.Float64()*0.5), rows, maskBits, spec)
			if err := p.GramAccumulateCtxArena(ctx, dense, w, arena); err != nil {
				t.Fatal(err)
			}
			if err := GramAccumulateTriangle(ctx, p, narrow, w, arena, mask); err != nil {
				t.Fatal(err)
			}
			if err := GramAccumulateTriangle(ctx, p, wide, w, nil, mask); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < cols; i++ {
			for j := i; j < cols; j++ {
				want := dense.At(i, j)
				if mask != nil && !mask.Pair(i, j) {
					want = 0
				}
				if got := int64(narrow.at(i, j)); got != want {
					t.Fatalf("uint32 cell (%d,%d) = %d, want %d", i, j, got, want)
				}
				if got := wide.at(i, j); got != want {
					t.Fatalf("int64 cell (%d,%d) = %d, want %d", i, j, got, want)
				}
			}
		}
	})
}
