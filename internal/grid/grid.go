// Package grid provides processor-grid layouts and block-distribution
// helpers for the distributed Gram product of SimilarityAtScale.
//
// Section III-C of the paper arranges the p processors as a
// √(p/c) × √(p/c) × c grid: each of the c layers computes 1/c of the
// contributions to B on a 2D √(p/c) × √(p/c) subgrid, and a reduction over
// layers sums them. This package computes such factorisations (including
// non-square fallbacks when p/c is not a perfect square), maps ranks to
// grid coordinates, and splits index ranges into contiguous blocks.
package grid

import "fmt"

// Grid describes a 3D processor grid with Rows × Cols processors per layer
// and Layers replication layers; Rows*Cols*Layers ranks are used in total.
type Grid struct {
	Rows, Cols, Layers int
}

// Size returns the total number of ranks the grid uses.
func (g Grid) Size() int { return g.Rows * g.Cols * g.Layers }

// String implements fmt.Stringer.
func (g Grid) String() string {
	return fmt.Sprintf("%dx%dx%d", g.Rows, g.Cols, g.Layers)
}

// Coords maps a rank in [0, Size) to (row, col, layer) coordinates. Ranks
// are laid out layer-major, then row-major within a layer.
func (g Grid) Coords(rank int) (row, col, layer int) {
	if rank < 0 || rank >= g.Size() {
		//gas:invariant ranks come from the BSP runtime, which only mints ranks in [0, NProcs); an out-of-range rank is runtime corruption, not user input
		panic(fmt.Sprintf("grid: rank %d out of range for grid %s", rank, g))
	}
	layer = rank / (g.Rows * g.Cols)
	rem := rank % (g.Rows * g.Cols)
	return rem / g.Cols, rem % g.Cols, layer
}

// Rank maps (row, col, layer) coordinates to a rank.
func (g Grid) Rank(row, col, layer int) int {
	if row < 0 || row >= g.Rows || col < 0 || col >= g.Cols || layer < 0 || layer >= g.Layers {
		//gas:invariant coordinates are produced by Coords/peer iteration over this same grid; out-of-range coords indicate a caller bug, never external input
		panic(fmt.Sprintf("grid: coords (%d,%d,%d) out of range for grid %s", row, col, layer, g))
	}
	return layer*g.Rows*g.Cols + row*g.Cols + col
}

// RowPeers returns the ranks sharing grid row `row` within layer `layer`.
func (g Grid) RowPeers(row, layer int) []int {
	out := make([]int, g.Cols)
	for c := 0; c < g.Cols; c++ {
		out[c] = g.Rank(row, c, layer)
	}
	return out
}

// ColPeers returns the ranks sharing grid column `col` within layer `layer`.
func (g Grid) ColPeers(col, layer int) []int {
	out := make([]int, g.Rows)
	for r := 0; r < g.Rows; r++ {
		out[r] = g.Rank(r, col, layer)
	}
	return out
}

// Choose picks a processor grid for p ranks and requested replication
// factor c, following the paper's √(p/c) × √(p/c) × c prescription. The
// replication factor is clamped to [1, p] and reduced until it divides p;
// the per-layer grid is the most-square factorisation of p/c. Every rank is
// used: Rows*Cols*Layers == p whenever p ≥ 1. The processor count is the
// one user-derived shape here (a -procs flag or a launcher's world size),
// so a non-positive p is reported as an error rather than a panic.
func Choose(p, c int) (Grid, error) {
	if p <= 0 {
		return Grid{}, fmt.Errorf("grid: non-positive processor count %d", p)
	}
	if c < 1 {
		c = 1
	}
	if c > p {
		c = p
	}
	for p%c != 0 {
		c--
	}
	perLayer := p / c
	rows, cols := mostSquareFactors(perLayer)
	return Grid{Rows: rows, Cols: cols, Layers: c}, nil
}

// MustChoose is Choose for callers whose processor count is structurally
// positive (a validated Options, a live BSP world). It panics on the error
// Choose would return.
func MustChoose(p, c int) Grid {
	g, err := Choose(p, c)
	if err != nil {
		//gas:invariant callers pass a validated or runtime-provided positive processor count; see Choose for the error-returning form
		panic(err)
	}
	return g
}

// mostSquareFactors returns the factor pair (r, c) of n with r ≤ c and r as
// close to √n as possible.
func mostSquareFactors(n int) (int, int) {
	if n <= 0 {
		//gas:invariant only reachable from Choose after it validates p >= 1 and clamps c to a divisor of p, so n = p/c >= 1 always holds
		panic(fmt.Sprintf("grid: non-positive factorisation target %d", n))
	}
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return best, n / best
}

// BlockRange splits n items into `parts` contiguous blocks and returns the
// half-open range [lo, hi) owned by block idx. Blocks differ in size by at
// most one item (the first n%parts blocks get the extra item).
func BlockRange(n, parts, idx int) (lo, hi int) {
	if parts <= 0 {
		//gas:invariant parts is a grid dimension from Choose, which only builds grids with positive Rows/Cols/Layers
		panic(fmt.Sprintf("grid: non-positive part count %d", parts))
	}
	if idx < 0 || idx >= parts {
		//gas:invariant idx is a grid coordinate from Coords over the same grid; a mismatch is a caller bug in index math, not input
		panic(fmt.Sprintf("grid: block index %d out of range [0,%d)", idx, parts))
	}
	if n < 0 {
		//gas:invariant item counts are slice lengths or validated sample counts, never negative on any input-reachable path
		panic(fmt.Sprintf("grid: negative item count %d", n))
	}
	base := n / parts
	extra := n % parts
	lo = idx*base + min(idx, extra)
	size := base
	if idx < extra {
		size++
	}
	return lo, lo + size
}

// BlockOwner returns the block index owning item i when n items are split
// into `parts` blocks by BlockRange.
func BlockOwner(n, parts, i int) int {
	if i < 0 || i >= n {
		//gas:invariant i is an in-range item index produced by iteration over the same n items; out-of-range means broken index math upstream
		panic(fmt.Sprintf("grid: item %d out of range [0,%d)", i, n))
	}
	base := n / parts
	extra := n % parts
	// First `extra` blocks have size base+1.
	cutoff := extra * (base + 1)
	if i < cutoff {
		return i / (base + 1)
	}
	if base == 0 {
		// All remaining blocks are empty; owner is the last non-empty block.
		return extra - 1
	}
	return extra + (i-cutoff)/base
}

// CyclicItems returns the items in [0, n) owned by `rank` under a cyclic
// (round-robin) distribution over `parts` owners, the distribution used for
// reading input files ("for(i = my_rank; i < n; i += num_procs)" in
// Listing 2).
func CyclicItems(n, parts, rank int) []int {
	if rank < 0 || rank >= parts {
		//gas:invariant ranks come from the BSP runtime and are always in [0, NProcs)
		panic(fmt.Sprintf("grid: rank %d out of range [0,%d)", rank, parts))
	}
	var out []int
	for i := rank; i < n; i += parts {
		out = append(out, i)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
