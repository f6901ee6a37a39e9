package bitmat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"genomeatscale/internal/sparse"
)

// randomIndicatorRows builds a random indicator matrix as the per-column
// sorted row lists PackColumns takes, drawing each cell row-major.
func randomIndicatorRows(rng *rand.Rand, rows, cols int, density float64) [][]int {
	out := make([][]int, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				out[j] = append(out[j], i)
			}
		}
	}
	return out
}

// unpackRows decodes a packed matrix back to per-column sorted row lists,
// one row per set bit.
func unpackRows(p *Packed) [][]int {
	out := make([][]int, p.Cols)
	for j := range out {
		wordRows, words := p.Col(j)
		for k, w := range wordRows {
			for bit := 0; bit < p.B; bit++ {
				if words[k]&(1<<uint(bit)) != 0 {
					out[j] = append(out[j], w*p.B+bit)
				}
			}
		}
	}
	return out
}

// directGram is the oracle for the packed Gram product: B[i][j] =
// |col_i ∩ col_j|, counted straight from the row lists, the definition
// core.ExactJaccard's intersections use.
func directGram(rowsPerCol [][]int) *sparse.Dense[int64] {
	n := len(rowsPerCol)
	out := sparse.MustDense[int64](n, n)
	for i, x := range rowsPerCol {
		in := make(map[int]bool, len(x))
		for _, r := range x {
			in[r] = true
		}
		for j, y := range rowsPerCol {
			var c int64
			for _, r := range y {
				if in[r] {
					c++
				}
			}
			out.Set(i, j, c)
		}
	}
	return out
}

func TestPackColumnsBasic(t *testing.T) {
	// Column 0 has rows {0, 1, 64}; column 1 has row {63}.
	p := PackColumns([][]int{{0, 1, 64}, {63}}, 70, 64)
	if p.WordRows != 2 {
		t.Fatalf("WordRows = %d, want 2", p.WordRows)
	}
	if p.NNZWords() != 3 {
		t.Fatalf("NNZWords = %d, want 3", p.NNZWords())
	}
	if pc := p.ColPopcounts(); pc[0]+pc[1] != 4 {
		t.Fatalf("ColPopcounts = %v, want 4 bits in total", pc)
	}
	wr, ws := p.Col(0)
	if len(wr) != 2 || wr[0] != 0 || wr[1] != 1 {
		t.Fatalf("col 0 word rows = %v", wr)
	}
	if ws[0] != 0b11 || ws[1] != 1 {
		t.Fatalf("col 0 words = %v", ws)
	}
	wr1, ws1 := p.Col(1)
	if len(wr1) != 1 || wr1[0] != 0 || ws1[0] != 1<<63 {
		t.Fatalf("col 1 = %v %v", wr1, ws1)
	}
}

func TestPackColumnsNarrowWidth(t *testing.T) {
	// With b = 8, row 9 lands in word row 1, bit 1.
	p := PackColumns([][]int{{9}}, 16, 8)
	if p.WordRows != 2 {
		t.Fatalf("WordRows = %d, want 2", p.WordRows)
	}
	wr, ws := p.Col(0)
	if wr[0] != 1 || ws[0] != 2 {
		t.Fatalf("got %v %v, want word row 1 value 2", wr, ws)
	}
}

func TestPackColumnsPanics(t *testing.T) {
	cases := []func(){
		func() { PackColumns(nil, 10, 0) },
		func() { PackColumns(nil, 10, 65) },
		func() { PackColumns(nil, -1, 64) },
		func() { PackColumns([][]int{{10}}, 10, 64) },
		func() { PackColumns([][]int{{5, 3}}, 10, 64) }, // unsorted
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, b := range []int{8, 32, 64} {
		for trial := 0; trial < 8; trial++ {
			rows := 1 + rng.Intn(200)
			cols := 1 + rng.Intn(10)
			want := randomIndicatorRows(rng, rows, cols, 0.15)
			back := unpackRows(PackColumns(want, rows, b))
			for j := 0; j < cols; j++ {
				if !slices.Equal(want[j], back[j]) {
					t.Fatalf("b=%d col %d: rows %v after round trip, want %v", b, j, back[j], want[j])
				}
			}
		}
	}
}

// The packed Gram product must agree with intersection sizes counted on
// the uncompressed row lists — the equivalence that justifies Eq. 7.
func TestGramMatchesUncompressedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, b := range []int{16, 32, 64} {
		for trial := 0; trial < 10; trial++ {
			rows := 1 + rng.Intn(150)
			cols := 1 + rng.Intn(12)
			rowsPerCol := randomIndicatorRows(rng, rows, cols, 0.2)
			want := directGram(rowsPerCol)
			got := PackColumns(rowsPerCol, rows, b).Gram()
			if !sparse.Equal(want, got, func(a, c int64) bool { return a == c }) {
				t.Fatalf("b=%d trial %d: packed Gram differs from reference", b, trial)
			}
		}
	}
}

func TestGramAccumulateShapePanics(t *testing.T) {
	p := PackColumns([][]int{{0}}, 1, 64)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.GramAccumulate(sparse.MustDense[int64](2, 2))
}

func TestColPopcounts(t *testing.T) {
	p := PackColumns([][]int{{0, 1, 2}, {}, {63, 64}}, 100, 64)
	pc := p.ColPopcounts()
	if pc[0] != 3 || pc[1] != 0 || pc[2] != 2 {
		t.Errorf("ColPopcounts = %v", pc)
	}
}

func TestGramBlockMatchesFullGram(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows, cols := 120, 9
	p := PackColumns(randomIndicatorRows(rng, rows, cols, 0.2), rows, 64)
	full := p.Gram()
	// Split columns into two blocks and recompose the Gram matrix from
	// GramBlock calls.
	split := 4
	a := p.ColRange(0, split)
	b := p.ColRange(split, cols)
	blocks := [][2]*Packed{{a, a}, {a, b}, {b, a}, {b, b}}
	offsets := [][2]int{{0, 0}, {0, split}, {split, 0}, {split, split}}
	for k, pair := range blocks {
		blk := GramBlock(pair[0], pair[1])
		ro, co := offsets[k][0], offsets[k][1]
		for i := 0; i < blk.Rows; i++ {
			for j := 0; j < blk.Cols; j++ {
				if blk.At(i, j) != full.At(ro+i, co+j) {
					t.Fatalf("block %d: (%d,%d) = %d, want %d", k, i, j, blk.At(i, j), full.At(ro+i, co+j))
				}
			}
		}
	}
}

func TestGramBlockMismatchPanics(t *testing.T) {
	a := PackColumns([][]int{{0}}, 64, 64)
	b := PackColumns([][]int{{0}}, 200, 64)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GramBlock(a, b)
}

func TestWordRowRangeSplitsGram(t *testing.T) {
	// Splitting the contraction dimension across "layers" and summing the
	// partial Gram products must reproduce the full Gram product (the 3D
	// algorithm's reduction step).
	rng := rand.New(rand.NewSource(17))
	rows, cols := 300, 7
	p := PackColumns(randomIndicatorRows(rng, rows, cols, 0.1), rows, 64)
	full := p.Gram()
	acc := sparse.MustDense[int64](cols, cols)
	layers := 3
	per := (p.WordRows + layers - 1) / layers
	for l := 0; l < layers; l++ {
		lo := l * per
		hi := lo + per
		if hi > p.WordRows {
			hi = p.WordRows
		}
		if lo >= hi {
			continue
		}
		part := p.WordRowRange(lo, hi)
		part.GramAccumulate(acc)
	}
	if !sparse.Equal(full, acc, func(a, b int64) bool { return a == b }) {
		t.Error("sum of per-layer Gram products must equal the full Gram product")
	}
}

func TestColRangePanics(t *testing.T) {
	p := PackColumns([][]int{{0}, {1}}, 2, 64)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.ColRange(1, 3)
}

func TestWordRowRangePanics(t *testing.T) {
	p := PackColumns([][]int{{0}}, 64, 64)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p.WordRowRange(0, 2)
}

func TestEntriesFromEntriesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := PackColumns(randomIndicatorRows(rng, 150, 6, 0.15), 150, 64)
	entries := p.Entries()
	q := FromEntries(entries, p.WordRows, p.Cols, p.B, p.ActiveRows)
	if !sparse.Equal(p.Gram(), q.Gram(), func(a, b int64) bool { return a == b }) {
		t.Error("round trip through Entries/FromEntries changed the matrix")
	}
	if q.NNZWords() != p.NNZWords() {
		t.Errorf("NNZWords = %d, want %d", q.NNZWords(), p.NNZWords())
	}
}

func TestFromEntriesUnsortedMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := PackColumns(randomIndicatorRows(rng, 150, 6, 0.15), 150, 32)
	entries := p.Entries()
	shuffled := append([]PackedEntry(nil), entries...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	a := FromEntries(entries, p.WordRows, p.Cols, p.B, p.ActiveRows)
	b := FromEntries(shuffled, p.WordRows, p.Cols, p.B, p.ActiveRows)
	if !sparse.Equal(a.Gram(), b.Gram(), func(x, y int64) bool { return x == y }) {
		t.Error("unsorted entries assemble a different matrix than sorted entries")
	}
	if a.NNZWords() != b.NNZWords() {
		t.Errorf("NNZWords = %d vs %d", a.NNZWords(), b.NNZWords())
	}
}

func TestFromEntriesCombinesDuplicates(t *testing.T) {
	entries := []PackedEntry{
		{WordRow: 0, Col: 0, Word: 0b01},
		{WordRow: 0, Col: 0, Word: 0b10},
	}
	p := FromEntries(entries, 1, 1, 64, 2)
	if p.NNZWords() != 1 {
		t.Fatalf("NNZWords = %d, want 1", p.NNZWords())
	}
	_, ws := p.Col(0)
	if ws[0] != 0b11 {
		t.Errorf("combined word = %b, want 11", ws[0])
	}
}

func TestFromEntriesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromEntries([]PackedEntry{{WordRow: 5, Col: 0, Word: 1}}, 2, 1, 64, 100)
}

func TestMemoryWordsMonotone(t *testing.T) {
	small := PackColumns([][]int{{0}}, 64, 64)
	big := PackColumns([][]int{{0, 64, 128}, {1, 65}}, 200, 64)
	if big.MemoryWords() <= small.MemoryWords() {
		t.Error("more nonzero words must consume more memory")
	}
}

// Property: for any set of row indices, the packed column popcount equals
// the number of distinct indices (packing is lossless on cardinalities).
func TestColPopcountsEqualCardinalityProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		seen := map[int]bool{}
		rows := make([]int, 0, len(raw))
		for _, r := range raw {
			v := int(r % 1000)
			if !seen[v] {
				seen[v] = true
				rows = append(rows, v)
			}
		}
		sort.Ints(rows)
		p := PackColumns([][]int{rows}, 1000, 64)
		return p.ColPopcounts()[0] == int64(len(rows))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
