package bitmat

import (
	"fmt"

	"genomeatscale/internal/bitutil"
)

// RawParts is the internal storage of a Packed matrix laid bare for
// serialization: the column pointers, the sparse (wordRow, word) streams
// and the dense slab exactly as the matrix holds them. It is the contract
// between bitmat and the persistent index format in internal/index — the
// writer walks these slices straight to disk, and the mmap-opening reader
// hands file-backed slices to FromRaw without copying the payload.
//
// The slices of a RawParts returned by Raw are views into the matrix and
// must not be modified; a RawParts passed to FromRaw is adopted, so the
// caller must not modify the slices afterwards either.
type RawParts struct {
	// WordRows, Cols, B and ActiveRows mirror the Packed fields.
	WordRows   int
	Cols       int
	B          int
	ActiveRows int
	// ThresholdSpec is the dense-threshold spec the matrix was built with
	// (DenseAuto, DenseNever or an explicit stored-word count).
	ThresholdSpec int
	// ColPtr has length Cols+1 and delimits each column's slice of the
	// sparse streams; dense columns contribute empty ranges.
	ColPtr []int
	// WordRow and Words are the sparse streams, parallel slices sorted by
	// (column, word row) with strictly increasing word rows per column.
	WordRow []int
	Words   []uint64
	// DenseOff is each column's offset into Slab (-1 for sparse columns);
	// nil when no column is dense. Slab holds the dense columns' full
	// WordRows-length word rows back to back, and SlabNNZ counts its
	// nonzero words (storage accounting only).
	DenseOff []int
	Slab     []uint64
	SlabNNZ  int
}

// Raw exposes the matrix's storage for serialization. The returned slices
// are views — valid only while the matrix is alive and unreleased, and not
// to be modified.
func (p *Packed) Raw() RawParts {
	return RawParts{
		WordRows:      p.WordRows,
		Cols:          p.Cols,
		B:             p.B,
		ActiveRows:    p.ActiveRows,
		ThresholdSpec: p.threshold,
		ColPtr:        p.colPtr,
		WordRow:       p.wordRow,
		Words:         p.words,
		DenseOff:      p.denseOff,
		Slab:          p.slab,
		SlabNNZ:       p.slabNNZ,
	}
}

// FromRaw reassembles a Packed matrix around the given storage without
// copying it — the slices are adopted as the matrix's backing buffers, so
// mmap-opened indexes serve queries straight from the page cache. Because
// the parts typically come from an untrusted file, every invariant the
// kernels rely on is checked: shape consistency, monotone column pointers,
// per-column sorted in-range word rows, and dense offsets that tile the
// slab. The dense slab itself needs no validation (any bit pattern is a
// valid word), so adoption never faults its pages in. A violated invariant
// is an error, never a panic — a corrupt index file must not take down a
// serving process.
func FromRaw(r RawParts) (*Packed, error) {
	if r.B <= 0 || r.B > 64 {
		return nil, fmt.Errorf("bitmat: invalid bitmask width %d", r.B)
	}
	if r.Cols < 0 || r.ActiveRows < 0 {
		return nil, fmt.Errorf("bitmat: negative shape %d cols, %d active rows", r.Cols, r.ActiveRows)
	}
	if want := bitutil.WordsFor(r.ActiveRows, r.B); r.WordRows != want {
		return nil, fmt.Errorf("bitmat: %d word rows for %d active rows at width %d, want %d",
			r.WordRows, r.ActiveRows, r.B, want)
	}
	if len(r.ColPtr) != r.Cols+1 {
		return nil, fmt.Errorf("bitmat: %d column pointers for %d columns", len(r.ColPtr), r.Cols)
	}
	if len(r.WordRow) != len(r.Words) {
		return nil, fmt.Errorf("bitmat: %d word rows for %d words", len(r.WordRow), len(r.Words))
	}
	if r.Cols > 0 {
		if r.ColPtr[0] != 0 || r.ColPtr[r.Cols] != len(r.Words) {
			return nil, fmt.Errorf("bitmat: column pointers span [%d,%d], want [0,%d]",
				r.ColPtr[0], r.ColPtr[r.Cols], len(r.Words))
		}
	} else if len(r.Words) != 0 {
		return nil, fmt.Errorf("bitmat: %d words with no columns", len(r.Words))
	}
	for j := 0; j < r.Cols; j++ {
		lo, hi := r.ColPtr[j], r.ColPtr[j+1]
		if lo > hi || lo < 0 || hi > len(r.Words) {
			return nil, fmt.Errorf("bitmat: column %d pointers [%d,%d] outside [0,%d]",
				j, lo, hi, len(r.Words))
		}
		prev := -1
		for k := lo; k < hi; k++ {
			w := r.WordRow[k]
			if w <= prev || w >= r.WordRows {
				return nil, fmt.Errorf("bitmat: column %d word row %d out of order or range [0,%d)",
					j, w, r.WordRows)
			}
			prev = w
		}
	}
	numDense := 0
	if r.DenseOff != nil {
		if len(r.DenseOff) != r.Cols {
			return nil, fmt.Errorf("bitmat: %d dense offsets for %d columns", len(r.DenseOff), r.Cols)
		}
		if r.WordRows == 0 {
			return nil, fmt.Errorf("bitmat: dense columns with zero word rows")
		}
		seen := make(map[int]bool, len(r.Slab)/max(1, r.WordRows))
		for j, off := range r.DenseOff {
			if off < 0 {
				continue
			}
			if off%r.WordRows != 0 || off+r.WordRows > len(r.Slab) {
				return nil, fmt.Errorf("bitmat: column %d dense offset %d does not tile a %d-word slab of %d words",
					j, off, r.WordRows, len(r.Slab))
			}
			if seen[off] {
				return nil, fmt.Errorf("bitmat: dense offset %d used by two columns", off)
			}
			seen[off] = true
			numDense++
		}
	}
	if len(r.Slab) != numDense*r.WordRows {
		return nil, fmt.Errorf("bitmat: slab of %d words for %d dense columns of %d word rows",
			len(r.Slab), numDense, r.WordRows)
	}
	if r.SlabNNZ < 0 || r.SlabNNZ > len(r.Slab) {
		return nil, fmt.Errorf("bitmat: slab nonzero count %d outside [0,%d]", r.SlabNNZ, len(r.Slab))
	}
	denseOff := r.DenseOff
	if numDense == 0 {
		denseOff = nil
	}
	return &Packed{
		WordRows:   r.WordRows,
		Cols:       r.Cols,
		B:          r.B,
		ActiveRows: r.ActiveRows,
		threshold:  r.ThresholdSpec,
		colPtr:     r.ColPtr,
		wordRow:    r.WordRow,
		words:      r.Words,
		denseOff:   denseOff,
		slab:       r.Slab,
		slabNNZ:    r.SlabNNZ,
	}, nil
}

// ColPopcountAnd returns Σ_w popcount(bitmap[w] ∧ p[w][j]): the exact
// intersection of column j with a row set given as a full word-row bitmap
// over p's row space (row r is bit r%B of bitmap[r/B]) — the
// query-vs-corpus kernel of the persistent index. Because the query side
// is always dense, a dense column runs the dispatched slab AND+popcount
// kernel and a sparse column gathers its partners by direct indexing; no
// pairing ever takes the index merge.
func (p *Packed) ColPopcountAnd(j int, bitmap []uint64) int {
	if len(bitmap) != p.WordRows {
		//gas:invariant the bitmap is sized from this matrix's WordRows by the index layer; a mismatch is API misuse of an internal kernel
		panic(fmt.Sprintf("bitmat: ColPopcountAnd bitmap of %d words against %d word rows", len(bitmap), p.WordRows))
	}
	v := p.view(j)
	if v.dense != nil {
		return bitutil.PopcountAndSlice(bitmap, v.dense)
	}
	return gatherPopcountAnd(bitmap, v.wr, v.ws)
}
