// Package dist implements the distributed execution layer of
// SimilarityAtScale (Section III-C of the paper): the √(p/c) × √(p/c) × c
// processor grid with cyclic sample ownership, the distributed filter
// vector f(l) of the rows two samples of a batch share, with its replicated
// prefix-sum row compaction (Eq. 5, 6), and the processor-grid Gram engine
// that accumulates B = ÂᵀÂ batch by batch over the BSP runtime (Eq. 4, 7)
// before deriving S and D blockwise (Eq. 2).
//
// The package is consumed by internal/core, whose one batch loop runs
// against either a local or a grid target: both build the batch's filter as
// the same rank structure (RowRank) and share the Eq. 2 row derivation
// (JaccardRow), so the two are algebraically the same pipeline and differ
// only in where the data lives.
package dist

import (
	"genomeatscale/internal/bsp"
	"genomeatscale/internal/grid"
)

// Context binds one BSP rank to its position in the processor grid. All
// dist operations of a run are performed through the same Context, which
// guarantees every rank agrees on the grid layout (the grid is a pure
// function of NProcs and the replication factor).
type Context struct {
	// P is this rank's BSP handle.
	P *bsp.Proc
	// Grid is the √(p/c) × √(p/c) × c processor grid chosen for the run.
	Grid grid.Grid
	// Row, Col, Layer are this rank's grid coordinates.
	Row, Col, Layer int
}

// NewContextWithGrid binds a rank to a pre-chosen grid. The reusable engine
// in internal/core chooses the grid once at construction (it is a pure
// function of Procs and Replication) and shares it across calls; g must
// equal grid.Choose(p.NProcs(), c) for the run's configuration.
func NewContextWithGrid(p *bsp.Proc, g grid.Grid) *Context {
	row, col, layer := g.Coords(p.Rank())
	return &Context{P: p, Grid: g, Row: row, Col: col, Layer: layer}
}

// OwnedSamples returns the samples this rank reads, under the cyclic
// distribution the paper uses for input files (Listing 2): rank r owns
// samples r, r+p, r+2p, …
func (c *Context) OwnedSamples(n int) []int {
	return grid.CyclicItems(n, c.P.NProcs(), c.P.Rank())
}

// RowBlock returns the half-open range of B rows (equivalently, of Âᵀ
// columns) owned by this rank's grid row when n samples are split into
// Grid.Rows contiguous blocks.
func (c *Context) RowBlock(n int) (lo, hi int) {
	return grid.BlockRange(n, c.Grid.Rows, c.Row)
}

// ColBlock returns the half-open range of B columns owned by this rank's
// grid column.
func (c *Context) ColBlock(n int) (lo, hi int) {
	return grid.BlockRange(n, c.Grid.Cols, c.Col)
}

// LayerWordRows returns the half-open word-row range of the contraction
// dimension assigned to this rank's replication layer: each of the c
// layers multiplies 1/c of the packed word rows of Â(l).
func (c *Context) LayerWordRows(wordRows int) (lo, hi int) {
	return grid.BlockRange(wordRows, c.Grid.Layers, c.Layer)
}

// Jaccard derives one similarity entry from an intersection cardinality and
// the two sample cardinalities (Eq. 2): J = b_ij / (â_i + â_j − b_ij), with
// the J(∅, ∅) = 0 convention when the union is empty — an empty sample
// shares nothing with anything, so it must not pair as a perfect match in
// thresholded runs (the same convention minhash.EstimateJaccard uses, so
// the sketch prescreen and the exact tier agree on degenerate pairs).
func Jaccard(bij, ci, cj int64) float64 {
	union := ci + cj - bij
	if union == 0 {
		return 0
	}
	return float64(bij) / float64(union)
}

// JaccardRow derives one row of S and of D = 1 − S from the matching row
// of B (Eq. 2): ci is the row sample's cardinality and cj[k] the
// cardinality of the sample in column k. It is the one derivation behind
// every result tile — the local target's row bands in internal/core and
// the grid's result blocks (Blocks) — which is what keeps their outputs
// byte-identical.
func JaccardRow(srow, drow []float64, brow []int64, ci int64, cj []int64) {
	for k, b := range brow {
		s := Jaccard(b, ci, cj[k])
		srow[k] = s
		drow[k] = 1 - s
	}
}
