package bitmat

import (
	"fmt"
	"sort"
)

// The column and word-row slicers below live with the tests: the grid
// engine (internal/dist) builds each panel straight from its merged
// entries, so no production path slices a packed matrix. The tests use them
// to split a matrix the way the processor grid does.

// ColRange extracts the packed sub-matrix of columns [lo, hi), sharing the
// same row space and the dense-threshold spec. Because neither WordRows
// nor any column's stored-word count changes, each column keeps its layout
// and is copied directly — dense slabs as slabs, sparse streams into
// exactly presized streams.
func (p *Packed) ColRange(lo, hi int) *Packed {
	if lo < 0 || hi > p.Cols || lo > hi {
		panic(fmt.Sprintf("bitmat: ColRange [%d,%d) out of range for %d columns", lo, hi, p.Cols))
	}
	out := &Packed{
		WordRows:   p.WordRows,
		Cols:       hi - lo,
		B:          p.B,
		ActiveRows: p.ActiveRows,
		threshold:  p.threshold,
		colPtr:     make([]int, hi-lo+1),
	}
	sparseWords, numDense := 0, 0
	for j := lo; j < hi; j++ {
		if p.IsDense(j) {
			numDense++
		} else {
			sparseWords += p.colPtr[j+1] - p.colPtr[j]
		}
	}
	out.wordRow = make([]int, 0, sparseWords)
	out.words = make([]uint64, 0, sparseWords)
	if numDense > 0 {
		out.denseOff = make([]int, hi-lo)
		out.slab = make([]uint64, 0, numDense*p.WordRows)
	}
	for j := lo; j < hi; j++ {
		if p.IsDense(j) {
			out.denseOff[j-lo] = len(out.slab)
			out.slab = append(out.slab, p.denseColWords(j)...)
		} else {
			if out.denseOff != nil {
				out.denseOff[j-lo] = -1
			}
			clo, chi := p.colPtr[j], p.colPtr[j+1]
			out.wordRow = append(out.wordRow, p.wordRow[clo:chi]...)
			out.words = append(out.words, p.words[clo:chi]...)
		}
		out.colPtr[j-lo+1] = len(out.words)
	}
	for _, w := range out.slab {
		if w != 0 {
			out.slabNNZ++
		}
	}
	return out
}

// WordRowRange extracts the packed sub-matrix restricted to word rows
// [lo, hi), with word-row indices shifted to start at zero: the share of
// the contraction dimension one replication layer of the 3D processor grid
// multiplies. A count pass sizes the output exactly, and each
// column's layout is re-decided against the threshold resolved at the new
// (smaller) word-row height, so a column dense over the full batch may
// return to the sparse stream in a thin layer slice and vice versa never
// (slicing cannot increase a column's stored-word count beyond the height).
func (p *Packed) WordRowRange(lo, hi int) *Packed {
	if lo < 0 || hi > p.WordRows || lo > hi {
		panic(fmt.Sprintf("bitmat: WordRowRange [%d,%d) out of range for %d word rows", lo, hi, p.WordRows))
	}
	active := (hi - lo) * p.B
	if rem := p.ActiveRows - lo*p.B; hi == p.WordRows && rem < active {
		active = rem
	}
	if active < 0 {
		active = 0
	}
	out := &Packed{
		WordRows:   hi - lo,
		Cols:       p.Cols,
		B:          p.B,
		ActiveRows: active,
		threshold:  p.threshold,
		colPtr:     make([]int, p.Cols+1),
	}
	t := resolveDenseThreshold(p.threshold, out.WordRows)

	// Count pass: stored words of each column inside [lo, hi). Sparse
	// streams are sorted by word row, so the range is two binary searches;
	// dense slabs count their nonzero words in the slice.
	counts := make([]int, p.Cols)
	starts := make([]int, p.Cols) // sparse columns: stream index of first word in range
	sparseWords, numDense := 0, 0
	for j := 0; j < p.Cols; j++ {
		var cnt int
		if p.IsDense(j) {
			for _, w := range p.denseColWords(j)[lo:hi] {
				if w != 0 {
					cnt++
				}
			}
		} else {
			clo, chi := p.colPtr[j], p.colPtr[j+1]
			wr := p.wordRow[clo:chi]
			s := sort.SearchInts(wr, lo)
			e := sort.SearchInts(wr, hi)
			starts[j] = clo + s
			cnt = e - s
		}
		counts[j] = cnt
		if t >= 0 && cnt >= t {
			numDense++
		} else {
			sparseWords += cnt
		}
	}

	out.wordRow = make([]int, 0, sparseWords)
	out.words = make([]uint64, 0, sparseWords)
	if numDense > 0 {
		out.denseOff = make([]int, p.Cols)
		out.slab = make([]uint64, numDense*out.WordRows)
	}
	off := 0
	for j := 0; j < p.Cols; j++ {
		dense := t >= 0 && counts[j] >= t
		if out.denseOff != nil && !dense {
			out.denseOff[j] = -1
		}
		switch {
		case dense && p.IsDense(j):
			out.denseOff[j] = off
			copy(out.slab[off:off+out.WordRows], p.denseColWords(j)[lo:hi])
			off += out.WordRows
		case dense:
			out.denseOff[j] = off
			row := out.slab[off : off+out.WordRows]
			for k := starts[j]; k < starts[j]+counts[j]; k++ {
				row[p.wordRow[k]-lo] = p.words[k]
			}
			off += out.WordRows
		case p.IsDense(j):
			for k, w := range p.denseColWords(j)[lo:hi] {
				if w != 0 {
					out.wordRow = append(out.wordRow, k)
					out.words = append(out.words, w)
				}
			}
		default:
			for k := starts[j]; k < starts[j]+counts[j]; k++ {
				out.wordRow = append(out.wordRow, p.wordRow[k]-lo)
				out.words = append(out.words, p.words[k])
			}
		}
		out.colPtr[j+1] = len(out.words)
	}
	for _, w := range out.slab {
		if w != 0 {
			out.slabNNZ++
		}
	}
	return out
}
