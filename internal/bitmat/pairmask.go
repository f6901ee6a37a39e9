package bitmat

// PairMask is a symmetric n×n bitset over column pairs, used by the
// MinHash prescreening tier to tell the Gram kernel which pairs survived
// the estimate gate: masked-out pairs are skipped — whole output tiles at
// a time when no pair of the tile survived — so their intersection
// cardinalities are never computed and stay 0 in the accumulator.
type PairMask struct {
	n     int
	rowW  int // words per row: ceil(n/64)
	words []uint64
}

// NewPairMask returns an empty mask over n columns.
func NewPairMask(n int) *PairMask {
	if n < 0 {
		n = 0
	}
	rowW := (n + 63) / 64
	return &PairMask{n: n, rowW: rowW, words: make([]uint64, n*rowW)}
}

// N returns the number of columns the mask spans.
func (m *PairMask) N() int { return m.n }

// Set marks the pair (i, j) — and symmetrically (j, i) — as surviving.
func (m *PairMask) Set(i, j int) {
	m.words[i*m.rowW+j/64] |= 1 << uint(j%64)
	m.words[j*m.rowW+i/64] |= 1 << uint(i%64)
}

// SetHalf marks (i, j) without the symmetric mirror. It only writes row i,
// so parallel fills where each goroutine owns one row stay race-free;
// callers must MirrorUpper once the fill is done.
func (m *PairMask) SetHalf(i, j int) {
	m.words[i*m.rowW+j/64] |= 1 << uint(j%64)
}

// MirrorUpper copies every upper-triangle bit (i ≤ j) onto its transpose,
// completing a SetHalf fill into a symmetric mask.
func (m *PairMask) MirrorUpper() {
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if m.Pair(i, j) {
				m.SetHalf(j, i)
			}
		}
	}
}

// Pair reports whether the pair (i, j) survives.
func (m *PairMask) Pair(i, j int) bool {
	return m.words[i*m.rowW+j/64]&(1<<uint(j%64)) != 0
}

// AnyInRange reports whether column i survives with any partner in
// [j0, j1), scanning whole mask words.
func (m *PairMask) AnyInRange(i, j0, j1 int) bool {
	if j0 < 0 {
		j0 = 0
	}
	if j1 > m.n {
		j1 = m.n
	}
	if j0 >= j1 {
		return false
	}
	row := m.words[i*m.rowW : (i+1)*m.rowW]
	w0, w1 := j0/64, (j1-1)/64
	for w := w0; w <= w1; w++ {
		word := row[w]
		if w == w0 {
			word &= ^uint64(0) << uint(j0%64)
		}
		if w == w1 && (j1%64) != 0 {
			word &= ^uint64(0) >> uint(64-j1%64)
		}
		if word != 0 {
			return true
		}
	}
	return false
}

// AnyPartnerOffDiag reports whether column i survives with any partner
// other than itself — the candidate-column test the batch stage uses to
// drop columns from packing altogether. The diagonal does not count: a
// sample's self-intersection is its cardinality by definition, so a
// column whose only surviving pair is (i, i) needs no packed
// representation at all.
func (m *PairMask) AnyPartnerOffDiag(i int) bool {
	return m.AnyInRange(i, 0, i) || m.AnyInRange(i, i+1, m.n)
}

// anyInTile reports whether any upper-triangular cell (i ≤ j) of the
// output tile rows [i0, i1) × cols [j0, j1) survives.
func (m *PairMask) anyInTile(i0, i1, j0, j1 int) bool {
	for i := i0; i < i1; i++ {
		if m.AnyInRange(i, max(j0, i), j1) {
			return true
		}
	}
	return false
}

// CountUpper returns the number of surviving unordered pairs, diagonal
// included.
func (m *PairMask) CountUpper() int64 {
	var count int64
	for i := 0; i < m.n; i++ {
		for j := i; j < m.n; j++ {
			if m.Pair(i, j) {
				count++
			}
		}
	}
	return count
}
