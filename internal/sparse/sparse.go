// Package sparse holds Dense, the row-major matrix the similarity output
// lives in: the intersection counts B, the similarities S and the distances
// D of every tile, and the oracles and sinks that consume them. The paper
// notes (Section VI) that the Jaccard output is generally dense even when
// the indicator matrix is hypersparse.
//
// The product B = AᵀA itself runs only through internal/bitmat's packed
// popcount kernels (Eq. 7); this package holds storage, not algebra.
package sparse

import "fmt"

// Dense is a row-major dense matrix.
type Dense[T any] struct {
	Rows, Cols int
	Data       []T
}

// NewDense allocates a zeroed dense matrix. A negative user-derived shape
// is reported as an error; use MustDense when the shape is structurally
// non-negative.
func NewDense[T any](rows, cols int) (*Dense[T], error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dense dimensions %dx%d", rows, cols)
	}
	return &Dense[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}, nil
}

// MustDense is NewDense for shapes derived from existing matrices or block
// ranges, which cannot be negative. It panics on the error NewDense would
// return.
func MustDense[T any](rows, cols int) *Dense[T] {
	d, err := NewDense[T](rows, cols)
	if err != nil {
		//gas:invariant callers pass shapes derived from existing matrices or block ranges; see NewDense for the error-returning form
		panic(err)
	}
	return d
}

// At returns the element at (i, j).
func (d *Dense[T]) At(i, j int) T { return d.Data[i*d.Cols+j] }

// Set stores v at (i, j).
func (d *Dense[T]) Set(i, j int, v T) { d.Data[i*d.Cols+j] = v }

// Row returns a view of row i.
func (d *Dense[T]) Row(i int) []T { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// Equal reports whether two dense matrices are elementwise equal under eq.
func Equal[T any](a, b *Dense[T], eq func(T, T) bool) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !eq(a.Data[i], b.Data[i]) {
			return false
		}
	}
	return true
}
