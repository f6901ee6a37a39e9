package dist

import (
	"fmt"
	"math"
	"slices"

	"genomeatscale/internal/bsp"
)

// FilterVector is the distributed filter f(l) of Eq. 5: a boolean vector
// over the rows of one batch in which entry r is set iff some sample has
// attribute r. Ranks write the rows they observe in their owned samples;
// Replicate then agrees on the global nonzero set, whose sorted order is
// exactly the replicated prefix sum of Eq. 6 (row r compacts to its
// position in the sorted nonzero list).
type FilterVector struct {
	ctx    *Context
	length int64
	local  []int64
}

// NewFilterVector creates an empty filter over a batch with `length` rows.
func NewFilterVector(ctx *Context, length int64) *FilterVector {
	if length <= 0 {
		//gas:invariant batch lengths come from RowSlice ranges over a validated dataset and are positive by construction
		panic(fmt.Sprintf("dist: non-positive filter length %d", length))
	}
	return &FilterVector{ctx: ctx, length: length}
}

// Write marks the given batch-relative rows as nonzero. Rows may repeat and
// may arrive in any order; they must lie in [0, length).
func (f *FilterVector) Write(rows []int64) {
	for _, r := range rows {
		if r < 0 || r >= f.length {
			//gas:invariant rows are produced by the batch hasher within this same filter's [0, length) space
			panic(fmt.Sprintf("dist: filter row %d out of range [0,%d)", r, f.length))
		}
	}
	f.local = append(f.local, rows...)
}

// Replicate combines the per-rank writes into the global sorted nonzero row
// list and returns it on every rank (the "replicated" part of the paper's
// replicated prefix sum). The exchange rides on bsp.SortedAllGatherKeys, so
// its communication volume is visible in the run's Stats; batches whose row
// range exceeds the platform int (only possible on 32-bit builds, given the
// 2^62 universe bound) take an int64 gather instead. Both branches key on
// the filter length, which is identical on every rank, so the collective
// sequence stays aligned.
func (f *FilterVector) Replicate() []int64 {
	local := Compact(f.local)
	if f.length-1 > math.MaxInt {
		all := Compact(bsp.AllGatherVariable(f.ctx.P, local))
		return all
	}
	keys := make([]int, len(local))
	for i, r := range local {
		keys[i] = int(r)
	}
	all := bsp.SortedAllGatherKeys(f.ctx.P, keys)
	out := make([]int64, 0, len(all))
	for _, k := range all {
		if len(out) == 0 || int64(k) != out[len(out)-1] {
			out = append(out, int64(k))
		}
	}
	return out
}

// Compact sorts a copy of rows and removes duplicates. It is the local
// (communication-free) form of the filter construction, used by Replicate
// on each rank's writes and by the local target in internal/core, which
// sees every sample and therefore needs no exchange.
func Compact(rows []int64) []int64 {
	if len(rows) == 0 {
		return nil
	}
	out := append([]int64(nil), rows...)
	slices.Sort(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}
