// Package bitmat implements the bitmask-compressed batch matrix Â(l) of
// SimilarityAtScale (Section III-B). After zero rows of a batch have been
// filtered out and the surviving rows renumbered by the prefix sum of the
// filter vector, segments of b consecutive rows of each column are packed
// into b-bit words. The Gram product B = ÂᵀÂ is then evaluated with the
// popcount-AND semiring (Eq. 7), which both shrinks the per-nonzero
// metadata and lets a single machine instruction process b row positions.
//
// Storage is hybrid per column. The filter/compact stage guarantees that
// every surviving row is non-empty, so packed columns of a filtered batch
// are often dense in the word-row dimension; storing such a column as a
// sorted (wordRow, word) stream makes every Gram cell pay a branchy index
// merge. Columns whose stored-word count reaches a density threshold are
// therefore stored as a full contiguous []uint64 slab of length WordRows
// (word row w at slab index w, absent words zero), which the Gram kernels
// process with straight AND+popcount loops; the remaining columns keep the
// compact sparse stream. See DenseAuto/DenseNever for the threshold
// convention.
package bitmat

import (
	"fmt"

	"genomeatscale/internal/bitutil"
)

// Dense-threshold specs. The spec is a per-matrix setting, inherited by
// every derived matrix (ColRange, WordRowRange, Entries→FromEntries), and
// resolved against the matrix's WordRows at construction time:
//
//	DenseAuto  (0): threshold = max(1, WordRows/4) — a column occupying at
//	               least a quarter of the word rows is stored dense.
//	DenseNever (<0): every column keeps the sparse stream (the historical
//	               sparse-only layout).
//	spec > 0:      explicit stored-word count; columns with at least that
//	               many stored words are stored dense (1 = every non-empty
//	               column dense).
const (
	DenseAuto  = 0
	DenseNever = -1
)

// resolveDenseThreshold maps a threshold spec to a concrete stored-word
// count for a matrix with the given word-row height, or -1 when dense
// storage is disabled.
func resolveDenseThreshold(spec, wordRows int) int {
	switch {
	case spec < 0:
		return -1
	case spec == DenseAuto:
		return max(1, wordRows/4)
	default:
		return spec
	}
}

// Packed is a column-compressed matrix whose values are b-bit masks of row
// segments. Rows of Packed are "word rows": word row w of column j covers
// original (filtered) rows [w*B, (w+1)*B).
type Packed struct {
	// WordRows is the number of packed word rows, ceil(activeRows / B).
	WordRows int
	// Cols is the number of data samples (columns of the indicator matrix).
	Cols int
	// B is the number of row positions packed per word (1..64).
	B int
	// ActiveRows is the number of (filtered) rows represented.
	ActiveRows int

	// threshold is the dense-threshold spec (DenseAuto, DenseNever or an
	// explicit word count) the matrix was built with; derived matrices
	// inherit it.
	threshold int

	// Sparse columns: compressed (wordRow, word) streams. Dense columns
	// contribute empty colPtr ranges.
	colPtr  []int    // length Cols+1
	wordRow []int    // length of the sparse part of NNZWords
	words   []uint64 // parallel to wordRow

	// Dense columns: denseOff[j] is the column's offset into slab (its words
	// occupy slab[denseOff[j] : denseOff[j]+WordRows]), or -1 for sparse
	// columns. denseOff is nil when no column is dense.
	denseOff []int
	slab     []uint64
	slabNNZ  int // number of nonzero words stored in slab

	// arena, when non-nil, is the Arena this matrix's backing buffers were
	// drawn from (FromEntriesThresholdArena); Release returns them to it.
	arena *Arena
}

// DenseThresholdSpec returns the dense-threshold spec (DenseAuto, DenseNever
// or an explicit stored-word count) this matrix was built with.
func (p *Packed) DenseThresholdSpec() int { return p.threshold }

// IsDense reports whether column j is stored as a contiguous dense slab.
func (p *Packed) IsDense(j int) bool {
	return p.denseOff != nil && p.denseOff[j] >= 0
}

// DenseCols returns the number of columns stored dense.
func (p *Packed) DenseCols() int {
	if p.denseOff == nil {
		return 0
	}
	return len(p.slab) / max(1, p.WordRows)
}

// NNZWords returns the number of stored nonzero packed words across both
// layouts. (Zero words never survive densification, and the packing paths
// never emit them.)
func (p *Packed) NNZWords() int { return len(p.words) + p.slabNNZ }

// WordOccupancy returns the fraction of the WordRows×Cols packed word grid
// holding a nonzero stored word. This is the measured counterpart of the
// occupancy the autotuner predicts from the dataset's nonzero density when
// choosing the storage layout (costmodel); the engine's tuning report
// records both so mispredictions are visible.
func (p *Packed) WordOccupancy() float64 {
	cells := float64(p.WordRows) * float64(p.Cols)
	if cells == 0 {
		return 0
	}
	return float64(p.NNZWords()) / cells
}

// Release returns the matrix's backing buffers to the Arena it was built
// from (FromEntriesThresholdArena) and leaves the matrix empty. The caller
// must not use the matrix, or any view of it, afterwards. Matrices built
// without an arena ignore the call.
func (p *Packed) Release() {
	if p.arena == nil {
		return
	}
	p.arena.putInts(p.colPtr, p.wordRow, p.denseOff)
	p.arena.putWords(p.words, p.slab)
	p.colPtr, p.wordRow, p.denseOff = nil, nil, nil
	p.words, p.slab = nil, nil
	p.slabNNZ = 0
	arena := p.arena
	p.arena = nil
	arena.putPacked(p)
}

// Col returns the word-row indices and packed words of column j. For sparse
// columns the returned slices are views into the internal streams; for
// dense columns they are freshly allocated from the column's nonzero slab
// words. Hot paths (the Gram kernels) use the layout-aware views instead.
func (p *Packed) Col(j int) ([]int, []uint64) {
	if p.IsDense(j) {
		row := p.denseColWords(j)
		n := 0
		for _, w := range row {
			if w != 0 {
				n++
			}
		}
		wr := make([]int, 0, n)
		ws := make([]uint64, 0, n)
		for k, w := range row {
			if w != 0 {
				wr = append(wr, k)
				ws = append(ws, w)
			}
		}
		return wr, ws
	}
	lo, hi := p.colPtr[j], p.colPtr[j+1]
	return p.wordRow[lo:hi], p.words[lo:hi]
}

// denseColWords returns the full WordRows-length slab slice of a dense
// column (callers must have checked IsDense).
func (p *Packed) denseColWords(j int) []uint64 {
	off := p.denseOff[j]
	return p.slab[off : off+p.WordRows]
}

// MemoryWords estimates the storage in 64-bit words: sparse columns pay one
// payload and one metadata word per stored nonzero word; dense columns pay
// WordRows payload words (zero or not) and a single offset word, with no
// per-word metadata; plus the column pointers. The dense layout therefore
// trades up to WordRows−2·nnzWords extra payload words per column for the
// removal of all merge metadata — break-even at 50% occupancy, strictly
// smaller above it. This feeds the cost model's memory accounting.
func (p *Packed) MemoryWords() int {
	total := 2*len(p.words) + len(p.colPtr) + len(p.slab)
	if p.denseOff != nil {
		total += len(p.denseOff)
	}
	return total
}

// densify converts columns whose stored-word count reaches the resolved
// dense threshold from the sparse stream to the contiguous slab layout: the
// post-pass of PackColumnsThreshold. FromEntriesThresholdArena applies the
// same rule in its count pass, so the layout decision is identical no
// matter how a matrix was built.
func (p *Packed) densify() {
	t := resolveDenseThreshold(p.threshold, p.WordRows)
	if t < 0 || p.WordRows == 0 {
		return
	}
	numDense := 0
	for j := 0; j < p.Cols; j++ {
		if p.colPtr[j+1]-p.colPtr[j] >= t {
			numDense++
		}
	}
	if numDense == 0 {
		return
	}
	p.denseOff = p.arena.getInts(p.Cols)
	p.slab = p.arena.getWords(numDense * p.WordRows)
	off, w := 0, 0
	lo := p.colPtr[0]
	for j := 0; j < p.Cols; j++ {
		hi := p.colPtr[j+1]
		if hi-lo >= t {
			p.denseOff[j] = off
			row := p.slab[off : off+p.WordRows]
			for k := lo; k < hi; k++ {
				if word := p.words[k]; word != 0 {
					row[p.wordRow[k]] = word
					p.slabNNZ++
				}
			}
			off += p.WordRows
		} else {
			p.denseOff[j] = -1
			copy(p.wordRow[w:], p.wordRow[lo:hi])
			copy(p.words[w:], p.words[lo:hi])
			w += hi - lo
		}
		lo = hi
		p.colPtr[j+1] = w
	}
	p.wordRow = p.wordRow[:w]
	p.words = p.words[:w]
}

// PackColumns builds a Packed matrix from per-column sorted row-index lists
// (the filtered rows of a batch) with the DenseAuto layout. rowsPerCol[j]
// lists the active-row indices present in column j, each in [0, activeRows).
// b must be in [1, 64].
func PackColumns(rowsPerCol [][]int, activeRows, b int) *Packed {
	return PackColumnsThreshold(rowsPerCol, activeRows, b, DenseAuto)
}

// PackColumnsThreshold is PackColumns with an explicit dense-threshold spec
// (DenseAuto, DenseNever or a stored-word count).
func PackColumnsThreshold(rowsPerCol [][]int, activeRows, b, denseThreshold int) *Packed {
	if b <= 0 || b > 64 {
		//gas:invariant the packing width is bounded to [1,64] by the options layer before packing; this guards direct API misuse
		panic(fmt.Sprintf("bitmat: invalid bitmask width %d", b))
	}
	if activeRows < 0 {
		//gas:invariant activeRows is a row-map length (len of a built slice), structurally non-negative
		panic("bitmat: negative active row count")
	}
	cols := len(rowsPerCol)
	p := &Packed{
		WordRows:   bitutil.WordsFor(activeRows, b),
		Cols:       cols,
		B:          b,
		ActiveRows: activeRows,
		threshold:  denseThreshold,
		colPtr:     make([]int, cols+1),
	}
	for j, rows := range rowsPerCol {
		prevWord := -1
		var cur uint64
		emit := func() {
			if prevWord >= 0 && cur != 0 {
				p.wordRow = append(p.wordRow, prevWord)
				p.words = append(p.words, cur)
			}
		}
		for k, r := range rows {
			if r < 0 || r >= activeRows {
				//gas:invariant per-column rows are produced by the dataset builders against this same row space; out-of-range means a builder bug, not input
				panic(fmt.Sprintf("bitmat: row %d out of range [0,%d)", r, activeRows))
			}
			if k > 0 && rows[k-1] > r {
				//gas:invariant builders emit per-column rows sorted; unsorted input is a builder bug
				panic("bitmat: per-column rows must be sorted")
			}
			w := r / b
			bit := uint(r % b)
			if w != prevWord {
				emit()
				prevWord = w
				cur = 0
			}
			cur |= 1 << bit
		}
		emit()
		p.colPtr[j+1] = len(p.words)
	}
	p.densify()
	return p
}
