package bitmat

import (
	"context"
	"fmt"
)

// Cell is the integer type of a Triangle's cells: uint32 when every
// accumulated value is known to stay below 2³² (a Gram cell never exceeds
// the number of attribute rows), int64 otherwise.
type Cell interface{ uint32 | int64 }

// Triangle is the upper triangle of a symmetric N × N matrix, diagonal
// included, stored row by row: row i holds cells (i, i..N−1) and starts at
// offset i·N − i(i−1)/2 of Data. It is the storage a SYRK-style update
// writes — the Gram kernel computes only i ≤ j — at n(n+1)/2 cells instead
// of n².
type Triangle[C Cell] struct {
	N    int
	Data []C
}

// NewTriangle returns a zeroed triangle over n columns.
func NewTriangle[C Cell](n int) *Triangle[C] {
	return &Triangle[C]{N: n, Data: make([]C, n*(n+1)/2)}
}

// Row returns row i of the triangle: the cells (i, i..N−1).
func (t *Triangle[C]) Row(i int) []C {
	off := i*t.N - i*(i-1)/2
	return t.Data[off : off+t.N-i]
}

// ExpandRows writes rows [lo, lo+rows) of the full symmetric matrix into
// dst, row-major with N columns. Row r's own triangle row supplies the
// cells on and above the diagonal; each earlier row j supplies the
// contiguous segment of columns [max(lo, j+1), lo+rows), which is column j
// of the rows below its diagonal. A call over at most a few dozen rows
// keeps the scattered column writes within a cache-resident block of dst;
// calls over disjoint row ranges write disjoint parts of dst, so callers
// may expand a band in parallel chunks.
func (t *Triangle[C]) ExpandRows(dst []int64, lo, rows int) {
	n, hi := t.N, lo+rows
	for r := lo; r < hi; r++ {
		out := dst[(r-lo)*n+r : (r-lo+1)*n]
		for k, c := range t.Row(r) {
			out[k] = int64(c)
		}
	}
	for j := 0; j < hi; j++ {
		c0 := max(lo, j+1)
		if c0 >= hi {
			continue
		}
		seg := t.Row(j)[c0-j : hi-j]
		for k, c := range seg {
			dst[(c0+k-lo)*n+j] = int64(c)
		}
	}
}

// GramAccumulateTriangle adds p's Gram contribution B = ÂᵀÂ into the upper
// triangle `into`, restricted to the column pairs set in mask (nil computes
// every pair). It runs the same tile loop as GramAccumulateCtxArena —
// worker pool, cancellation, arena-drawn buffers, tile-level mask skip —
// and differs only in the flush: each tile's cells on and above the
// diagonal are added along one contiguous row segment of the triangle, and
// nothing is mirrored. Masked-out cells keep their value. The caller
// picks C wide enough for the accumulated sums.
func GramAccumulateTriangle[C Cell](ctx context.Context, p *Packed, into *Triangle[C], workers int, arena *Arena, mask *PairMask) error {
	if into.N != p.Cols {
		//gas:invariant the accumulator is allocated from this matrix's own Cols by every caller; a mismatch is an engine bug
		panic(fmt.Sprintf("bitmat: Gram triangle over %d columns, want %d", into.N, p.Cols))
	}
	return p.gramTiles(ctx, workers, arena, mask, into)
}

// addTile adds the tile's cells on and above the diagonal along one
// contiguous segment of each triangle row; nothing is mirrored.
func (t *Triangle[C]) addTile(ts tileSpec, slab []int64) {
	tw := ts.j1 - ts.j0
	for i := ts.i0; i < ts.i1; i++ {
		j0 := max(ts.j0, i)
		src := slab[(i-ts.i0)*tw+j0-ts.j0 : (i-ts.i0+1)*tw]
		dst := t.Row(i)[j0-i : ts.j1-i]
		for k, c := range src {
			dst[k] += C(c)
		}
	}
}
