package bitmat

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"genomeatscale/internal/sparse"
)

// seededAccumulator returns two identical accumulators pre-filled with
// deterministic junk, so the tests verify the kernels accumulate into (not
// overwrite) existing contents.
func seededAccumulator(rng *rand.Rand, n int) (*sparse.Dense[int64], *sparse.Dense[int64]) {
	a := sparse.MustDense[int64](n, n)
	for i := range a.Data {
		a.Data[i] = rng.Int63n(50)
	}
	return a, cloneDense(a)
}

// cloneDense returns a deep copy of d.
func cloneDense(d *sparse.Dense[int64]) *sparse.Dense[int64] {
	out := sparse.MustDense[int64](d.Rows, d.Cols)
	copy(out.Data, d.Data)
	return out
}

// TestGramAccumulateWorkersMatchesSerial: the tiled parallel kernel must be
// bit-identical to the serial kernel for every worker count, mask width and
// shape, including shapes smaller than one tile and much wider than the
// tile grid.
func TestGramAccumulateWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, maskBits := range []int{8, 32, 64} {
		for trial := 0; trial < 6; trial++ {
			rows := 1 + rng.Intn(400)
			cols := 1 + rng.Intn(90)
			rowsPerCol := randomIndicatorRows(rng, rows, cols, 0.1)
			p := PackColumns(rowsPerCol, rows, maskBits)
			want, seed := seededAccumulator(rng, cols)
			p.GramAccumulate(want)
			direct := directGram(rowsPerCol)
			for k, v := range seed.Data {
				if want.Data[k]-v != direct.Data[k] {
					t.Fatalf("b=%d trial=%d: serial Gram cell %d adds %d, direct count %d",
						maskBits, trial, k, want.Data[k]-v, direct.Data[k])
				}
			}
			for _, workers := range []int{0, 2, 3, 4, 7} {
				got := cloneDense(seed)
				p.GramAccumulateWorkers(got, workers)
				if !sparse.Equal(want, got, func(a, b int64) bool { return a == b }) {
					t.Fatalf("b=%d trial=%d workers=%d: parallel Gram differs from serial (%dx%d)",
						maskBits, trial, workers, rows, cols)
				}
			}
		}
	}
}

// TestGramBlockWorkersMatchesSerial checks the rectangular SUMMA kernel
// against its serial form across ragged block shapes, and that
// GramBlockAccumulateWorkers adds into the caller's block instead of
// overwriting it.
func TestGramBlockWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		rows := 1 + rng.Intn(300)
		cols := 2 + rng.Intn(80)
		p := PackColumns(randomIndicatorRows(rng, rows, cols, 0.12), rows, 64)
		split := 1 + rng.Intn(cols-1)
		a, b := p.ColRange(0, split), p.ColRange(split, cols)
		want := GramBlock(a, b)
		for _, workers := range []int{0, 2, 5} {
			got := GramBlockWorkers(a, b, workers)
			if !sparse.Equal(want, got, func(x, y int64) bool { return x == y }) {
				t.Fatalf("trial=%d workers=%d: parallel GramBlock differs from serial", trial, workers)
			}
			GramBlockAccumulateWorkers(a, b, got, workers)
			for k, v := range got.Data {
				if v != 2*want.Data[k] {
					t.Fatalf("trial=%d workers=%d: accumulating into the block gave cell %d = %d, want %d", trial, workers, k, v, 2*want.Data[k])
				}
			}
		}
	}
}

// TestConcurrentGramAccumulateDisjointAccumulators drives several
// concurrent GramAccumulateWorkers calls that share one read-only Packed
// matrix but own disjoint accumulators — the access pattern of independent
// batch pipelines sharing packed inputs. Run under -race in CI, it proves
// the kernel takes no hidden shared state through the Packed views.
func TestConcurrentGramAccumulateDisjointAccumulators(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const cols = 60
	rowsPerCol := randomIndicatorRows(rng, 500, cols, 0.1)
	p := PackColumns(rowsPerCol, 500, 64)
	want := directGram(rowsPerCol)

	const callers = 6
	accs := make([]*sparse.Dense[int64], callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for g := 0; g < callers; g++ {
		accs[g] = sparse.MustDense[int64](cols, cols)
		go func(acc *sparse.Dense[int64], workers int) {
			defer wg.Done()
			p.GramAccumulateWorkers(acc, workers)
		}(accs[g], 1+g%3)
	}
	wg.Wait()
	for g, acc := range accs {
		if !sparse.Equal(want, acc, func(a, b int64) bool { return a == b }) {
			t.Fatalf("concurrent caller %d produced a different Gram matrix", g)
		}
	}
}

// TestMergePopcountDenseOracleProperty checks the sorted-stream merge
// kernel against a naive dense-bitset intersection: for arbitrary bit sets,
// mergePopcount of their packed forms must equal the count of positions set
// in both.
func TestMergePopcountDenseOracleProperty(t *testing.T) {
	const space = 1024 // 16 word rows of 64 bits
	build := func(raw []uint16) ([]int, []uint64, []bool) {
		dense := make([]bool, space)
		for _, r := range raw {
			dense[int(r)%space] = true
		}
		var wr []int
		var ws []uint64
		for w := 0; w < space/64; w++ {
			var word uint64
			for bit := 0; bit < 64; bit++ {
				if dense[w*64+bit] {
					word |= 1 << uint(bit)
				}
			}
			if word != 0 {
				wr = append(wr, w)
				ws = append(ws, word)
			}
		}
		return wr, ws, dense
	}
	f := func(a, b []uint16) bool {
		wi, vi, da := build(a)
		wj, vj, db := build(b)
		want := 0
		for i := range da {
			if da[i] && db[i] {
				want++
			}
		}
		return mergePopcount(wi, vi, wj, vj) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// FuzzFromEntries: assembling the same coordinate multiset through the
// sorted linear-pass fast path and through the map fallback must yield
// byte-identical packed matrices, for arbitrary permutations and
// duplicates. The fuzzer derives an entry list from raw bytes, feeds the
// raw order to FromEntries (the fallback, unless the order happens to be
// sorted) and a (col, wordRow)-sorted copy (the fast path), and compares
// the canonical coordinate forms.
func FuzzFromEntries(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{3, 2, 255, 3, 2, 1, 0, 0, 7})                 // duplicate (wordRow, col)
	f.Add([]byte{7, 4, 9, 0, 0, 1, 5, 1, 2, 5, 1, 2, 1, 3, 8}) // reverse-ish order
	f.Fuzz(func(t *testing.T, data []byte) {
		const wordRows, cols = 8, 5
		var entries []PackedEntry
		for i := 0; i+2 < len(data); i += 3 {
			entries = append(entries, PackedEntry{
				WordRow: int(data[i]) % wordRows,
				Col:     int(data[i+1]) % cols,
				Word:    uint64(data[i+2])<<8 | uint64(data[i+1]) | 1,
			})
		}
		sortedCopy := append([]PackedEntry(nil), entries...)
		sort.SliceStable(sortedCopy, func(i, j int) bool {
			if sortedCopy[i].Col != sortedCopy[j].Col {
				return sortedCopy[i].Col < sortedCopy[j].Col
			}
			return sortedCopy[i].WordRow < sortedCopy[j].WordRow
		})
		fast := FromEntries(sortedCopy, wordRows, cols, 64, wordRows*64)
		raw := FromEntries(entries, wordRows, cols, 64, wordRows*64)

		fe, re := fast.Entries(), raw.Entries()
		if len(fe) != len(re) {
			t.Fatalf("fast path stores %d words, fallback %d", len(fe), len(re))
		}
		for k := range fe {
			if fe[k] != re[k] {
				t.Fatalf("entry %d: fast path %+v, fallback %+v", k, fe[k], re[k])
			}
		}
		if fast.NNZWords() != raw.NNZWords() {
			t.Fatalf("NNZWords %d vs %d", fast.NNZWords(), raw.NNZWords())
		}
		// The canonical form must round-trip through the fast path.
		again := FromEntries(fe, wordRows, cols, 64, wordRows*64)
		ae := again.Entries()
		for k := range fe {
			if fe[k] != ae[k] {
				t.Fatalf("round trip changed entry %d: %+v vs %+v", k, fe[k], ae[k])
			}
		}
	})
}

// TestGramAccumulateCtx: with no arena, an uncancelled context is exactly
// the plain kernel (bit-identical for every workers value, including the
// serial fast path); a cancelled one stops the accumulation and returns
// ctx.Err() on both the serial and the tiled route.
func TestGramAccumulateCtx(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := PackColumns(randomIndicatorRows(rng, 300, 60, 0.1), 300, 64)
	want, seed := seededAccumulator(rng, 60)
	p.GramAccumulate(want)

	for _, workers := range []int{1, 4} {
		got := cloneDense(seed)
		if err := p.GramAccumulateCtxArena(context.Background(), got, workers, nil); err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(want, got, func(a, b int64) bool { return a == b }) {
			t.Fatalf("workers=%d: ctx kernel differs from plain kernel", workers)
		}
		got = cloneDense(seed)
		if err := p.GramAccumulateCtxArena(nil, got, workers, nil); err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(want, got, func(a, b int64) bool { return a == b }) {
			t.Fatalf("workers=%d: nil-ctx kernel differs from plain kernel", workers)
		}

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := p.GramAccumulateCtxArena(cancelled, cloneDense(seed), workers, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
}
