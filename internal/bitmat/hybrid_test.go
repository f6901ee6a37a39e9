package bitmat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"genomeatscale/internal/sparse"
)

// hybrid_test.go pins down the tentpole property of the adaptive storage
// layout: the dense-threshold spec selects storage and kernels only — every
// observable result (Gram, GramBlock, ColPopcounts, unpacked rows, Entries,
// NNZWords, the ColRange/WordRowRange splits) is identical
// to the sparse-only layout for every threshold.

// thresholdSweep is the spec set every property below is checked over:
// sparse-only, the auto default, everything-dense, and a threshold larger
// than any column (equivalent to sparse-only through a different code
// path).
var thresholdSweep = []int{DenseNever, DenseAuto, 1, 1 << 30}

// randomRowsPerCol draws per-column sorted row sets at a given occupancy
// (fraction of active rows present per column).
func randomRowsPerCol(rng *rand.Rand, rows, cols int, occupancy float64) [][]int {
	out := make([][]int, cols)
	for j := range out {
		for r := 0; r < rows; r++ {
			if rng.Float64() < occupancy {
				out[j] = append(out[j], r)
			}
		}
	}
	return out
}

func int64Eq(a, b int64) bool { return a == b }

// assertPackedEquivalent checks every observable of q against the
// sparse-only reference p.
func assertPackedEquivalent(t *testing.T, p, q *Packed, label string) {
	t.Helper()
	if q.NNZWords() != p.NNZWords() {
		t.Fatalf("%s: NNZWords %d, want %d", label, q.NNZWords(), p.NNZWords())
	}
	if !sparse.Equal(p.Gram(), q.Gram(), int64Eq) {
		t.Fatalf("%s: Gram differs from sparse-only layout", label)
	}
	wantPC, gotPC := p.ColPopcounts(), q.ColPopcounts()
	for j := range wantPC {
		if wantPC[j] != gotPC[j] {
			t.Fatalf("%s: ColPopcounts[%d] = %d, want %d", label, j, gotPC[j], wantPC[j])
		}
	}
	wantU, gotU := unpackRows(p), unpackRows(q)
	for j := range wantU {
		if !slices.Equal(wantU[j], gotU[j]) {
			t.Fatalf("%s: unpacked col %d rows %v, want %v", label, j, gotU[j], wantU[j])
		}
	}
	wantE, gotE := p.Entries(), q.Entries()
	if len(wantE) != len(gotE) {
		t.Fatalf("%s: Entries length %d, want %d", label, len(gotE), len(wantE))
	}
	for k := range wantE {
		if wantE[k] != gotE[k] {
			t.Fatalf("%s: Entries[%d] = %+v, want %+v", label, k, gotE[k], wantE[k])
		}
	}
}

// TestHybridLayoutEquivalenceSweep sweeps column occupancy from hypersparse
// to near-full and asserts dense-stored and sparse-stored matrices are
// observationally identical at every threshold spec, including the
// Entries→FromEntries round trip and the distributed splitting operations.
func TestHybridLayoutEquivalenceSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, b := range []int{8, 32, 64} {
		for _, occupancy := range []float64{0.005, 0.05, 0.2, 0.5, 0.95} {
			rows := 200 + rng.Intn(400)
			cols := 3 + rng.Intn(10)
			rowsPerCol := randomRowsPerCol(rng, rows, cols, occupancy)
			ref := PackColumnsThreshold(rowsPerCol, rows, b, DenseNever)
			// The sparse-only reference itself is pinned to the row lists
			// it was packed from.
			if !slices.EqualFunc(rowsPerCol, unpackRows(ref), slices.Equal[[]int]) {
				t.Fatalf("b=%d occ=%.3f: packing is not lossless", b, occupancy)
			}
			if !sparse.Equal(directGram(rowsPerCol), ref.Gram(), int64Eq) {
				t.Fatalf("b=%d occ=%.3f: Gram differs from direct intersection counts", b, occupancy)
			}
			for _, spec := range thresholdSweep {
				label := fmt.Sprintf("b=%d occ=%.3f spec=%d", b, occupancy, spec)
				q := PackColumnsThreshold(rowsPerCol, rows, b, spec)
				if q.DenseThresholdSpec() != spec {
					t.Fatalf("%s: spec not recorded", label)
				}
				assertPackedEquivalent(t, ref, q, label)

				// Entries → FromEntries round trip keeps the layout spec and
				// the observables.
				rt := FromEntriesThreshold(q.Entries(), q.WordRows, q.Cols, q.B, q.ActiveRows, spec)
				assertPackedEquivalent(t, ref, rt, label+" roundtrip")

				// Column and word-row splits (the distributed lifecycle)
				// agree with the same splits of the sparse-only layout.
				mid := cols / 2
				assertPackedEquivalent(t, ref.ColRange(0, mid), q.ColRange(0, mid), label+" colrange-lo")
				assertPackedEquivalent(t, ref.ColRange(mid, cols), q.ColRange(mid, cols), label+" colrange-hi")
				wmid := q.WordRows / 2
				assertPackedEquivalent(t, ref.WordRowRange(0, wmid), q.WordRowRange(0, wmid), label+" wrr-lo")
				assertPackedEquivalent(t, ref.WordRowRange(wmid, q.WordRows), q.WordRowRange(wmid, q.WordRows), label+" wrr-hi")
			}
		}
	}
}

// TestHybridKernelCrossLayoutGramBlock multiplies blocks stored in
// different layouts against each other, exercising all three dispatch
// kernels (dense×dense, dense×sparse, sparse×sparse) in one product, and
// checks every combination against the sparse×sparse reference.
func TestHybridKernelCrossLayoutGramBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	rows, cols := 4096, 8
	// Mixed occupancies so the auto threshold genuinely splits the columns:
	// even columns fill ~all 64 word rows, odd columns ~2 of them.
	rowsPerCol := make([][]int, cols)
	for j := range rowsPerCol {
		occ := 0.0005
		if j%2 == 0 {
			occ = 0.8
		}
		rowsPerCol[j] = randomRowsPerCol(rng, rows, 1, occ)[0]
	}
	variants := map[string]*Packed{
		"sparse": PackColumnsThreshold(rowsPerCol, rows, 64, DenseNever),
		"auto":   PackColumnsThreshold(rowsPerCol, rows, 64, DenseAuto),
		"dense":  PackColumnsThreshold(rowsPerCol, rows, 64, 1),
	}
	if variants["auto"].DenseCols() == 0 || variants["auto"].DenseCols() == cols {
		t.Fatalf("auto layout must mix storage kinds, got %d/%d dense", variants["auto"].DenseCols(), cols)
	}
	want := GramBlock(variants["sparse"], variants["sparse"])
	for an, a := range variants {
		for bn, b := range variants {
			for _, workers := range []int{1, 3} {
				got := GramBlockWorkers(a, b, workers)
				if !sparse.Equal(want, got, int64Eq) {
					t.Fatalf("GramBlock(%s, %s, workers=%d) differs from sparse reference", an, bn, workers)
				}
			}
		}
	}
	// The full accumulate kernel on the mixed matrix agrees too, across
	// worker counts.
	ref := variants["sparse"].Gram()
	for name, v := range variants {
		for _, workers := range []int{1, 2, 5} {
			acc := sparse.MustDense[int64](cols, cols)
			v.GramAccumulateWorkers(acc, workers)
			if !sparse.Equal(ref, acc, int64Eq) {
				t.Fatalf("GramAccumulateWorkers(%s, workers=%d) differs from sparse serial", name, workers)
			}
		}
	}
}

// TestHybridMemoryWordsTradeoff pins the documented memory accounting: at
// high occupancy the dense layout must not be larger than the sparse
// stream (it drops the per-word metadata), and at low occupancy forcing
// density must cost more (full-height slabs for nearly empty columns).
func TestHybridMemoryWordsTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	rows, cols := 4096, 6
	densePC := randomRowsPerCol(rng, rows, cols, 0.95)
	// Word-level sparsity needs row occupancy well under 1/B: 0.0005 leaves
	// ~2 of the 64 word rows stored per column.
	sparsePC := randomRowsPerCol(rng, rows, cols, 0.0005)

	highSparse := PackColumnsThreshold(densePC, rows, 64, DenseNever)
	highDense := PackColumnsThreshold(densePC, rows, 64, 1)
	if highDense.MemoryWords() > highSparse.MemoryWords() {
		t.Errorf("≥90%% occupancy: dense layout %d words must not exceed sparse %d",
			highDense.MemoryWords(), highSparse.MemoryWords())
	}

	lowSparse := PackColumnsThreshold(sparsePC, rows, 64, DenseNever)
	lowForced := PackColumnsThreshold(sparsePC, rows, 64, 1)
	if lowForced.MemoryWords() <= lowSparse.MemoryWords() {
		t.Errorf("1%% occupancy: forced dense layout %d words must exceed sparse %d",
			lowForced.MemoryWords(), lowSparse.MemoryWords())
	}

	// The auto threshold picks the cheaper side of the trade on both ends.
	if auto := PackColumnsThreshold(densePC, rows, 64, DenseAuto); auto.DenseCols() != cols {
		t.Errorf("auto threshold left %d/%d high-occupancy columns sparse", cols-auto.DenseCols(), cols)
	}
	if auto := PackColumnsThreshold(sparsePC, rows, 64, DenseAuto); auto.DenseCols() != 0 {
		t.Errorf("auto threshold densified %d low-occupancy columns", auto.DenseCols())
	}
}

// FuzzHybridThresholdEquivalence fuzzes the layout decision: arbitrary row
// sets, mask widths and thresholds must leave Gram, ColPopcounts and the
// Entries round trip independent of the storage layout.
func FuzzHybridThresholdEquivalence(f *testing.F) {
	f.Add(int64(1), 64, 0, 0.3)
	f.Add(int64(2), 8, 1, 0.9)
	f.Add(int64(3), 32, -1, 0.05)
	f.Add(int64(4), 64, 7, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, maskBits, spec int, occupancy float64) {
		if maskBits < 1 || maskBits > 64 {
			t.Skip()
		}
		if occupancy < 0 || occupancy > 1 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(300)
		cols := 1 + rng.Intn(8)
		rowsPerCol := randomRowsPerCol(rng, rows, cols, occupancy)
		ref := PackColumnsThreshold(rowsPerCol, rows, maskBits, DenseNever)
		q := PackColumnsThreshold(rowsPerCol, rows, maskBits, spec)
		if !sparse.Equal(ref.Gram(), q.Gram(), int64Eq) {
			t.Fatal("Gram depends on storage layout")
		}
		refPC, qPC := ref.ColPopcounts(), q.ColPopcounts()
		for j := range refPC {
			if refPC[j] != qPC[j] {
				t.Fatalf("ColPopcounts[%d] depends on storage layout", j)
			}
		}
		rt := FromEntriesThreshold(q.Entries(), q.WordRows, q.Cols, q.B, q.ActiveRows, spec)
		if !sparse.Equal(ref.Gram(), rt.Gram(), int64Eq) {
			t.Fatal("Entries round trip depends on storage layout")
		}
		if rt.NNZWords() != ref.NNZWords() {
			t.Fatalf("round-trip NNZWords %d, want %d", rt.NNZWords(), ref.NNZWords())
		}
	})
}
