package bitmat

import (
	"context"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"genomeatscale/internal/sparse"
)

var gramBlockSeed = flag.Int64("gramblock.seed", 0, "run TestGramBlockWalkRandomized for this seed only (as printed by a failure)")

// TestGramBlockWalkRandomized compares the 4×4 block walk (gramWalk) with a
// per-cell pairPopcount reference on seeded random matrices, on the
// triangle path (GramAccumulateTriangle, with and without a PairMask, and
// the dense accumulator) and on the rectangular one
// (GramBlockAccumulateWorkers). A failure names its seed; re-run it with
// -gramblock.seed N. It fails unless the cases covered every tag below.
func TestGramBlockWalkRandomized(t *testing.T) {
	if *gramBlockSeed != 0 {
		if _, err := gramBlockCase(*gramBlockSeed); err != nil {
			t.Fatalf("seed %d: %v", *gramBlockSeed, err)
		}
		return
	}
	seen := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		tags, err := gramBlockCase(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, tag := range tags {
			seen[tag]++
		}
	}
	for _, tag := range []string{"full-dense-block", "diagonal-block", "tile-remainder", "mixed-block",
		"wordrows<8", "wordrows%8!=0", "partly-masked-block", "fully-masked-block"} {
		if seen[tag] == 0 {
			t.Errorf("no case covered %s: %v", tag, seen)
		}
	}
}

// gramBlockCase runs one seeded case on both paths and returns the tags of
// what it covered.
func gramBlockCase(seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	wordRows := 1 + rng.Intn(40)
	threshold := 1 + wordRows/2
	workers := 1 + rng.Intn(3)
	p := randomBlockMatrix(rng, wordRows, 1+rng.Intn(40), threshold)
	mask := randomBlockMask(rng, p.Cols)

	tags := blockTags(p, p, true, mask)
	tri := NewTriangle[int64](p.Cols)
	if err := GramAccumulateTriangle(context.Background(), p, tri, workers, NewArena(), mask); err != nil {
		return nil, err
	}
	for i := 0; i < p.Cols; i++ {
		for j := i; j < p.Cols; j++ {
			var want int64
			if mask == nil || mask.Pair(i, j) {
				want = int64(pairPopcount(p.view(i), p.view(j)))
			}
			if got := tri.Row(i)[j-i]; got != want {
				return nil, cellError("triangle", p, i, j, mask != nil, got, want)
			}
		}
	}
	dense := sparse.MustDense[int64](p.Cols, p.Cols)
	p.GramAccumulateWorkers(dense, workers)
	for i := 0; i < p.Cols; i++ {
		for j := 0; j < p.Cols; j++ {
			if got, want := dense.At(i, j), int64(pairPopcount(p.view(i), p.view(j))); got != want {
				return nil, cellError("dense accumulator", p, i, j, false, got, want)
			}
		}
	}

	// Rectangular: a second matrix over the same word rows, accumulated
	// into a block that already holds values.
	b := randomBlockMatrix(rng, wordRows, 1+rng.Intn(40), threshold)
	tags = append(tags, blockTags(p, b, false, nil)...)
	into := sparse.MustDense[int64](p.Cols, b.Cols)
	for k := range into.Data {
		into.Data[k] = rng.Int63n(1000)
	}
	before := append([]int64(nil), into.Data...)
	GramBlockAccumulateWorkers(p, b, into, workers)
	for i := 0; i < p.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			want := before[i*b.Cols+j] + int64(pairPopcount(p.view(i), b.view(j)))
			if got := into.At(i, j); got != want {
				return nil, cellError("rectangular", p, i, j, false, got, want)
			}
		}
	}
	return tags, nil
}

func cellError(path string, p *Packed, i, j int, masked bool, got, want int64) error {
	return fmt.Errorf("%s Gram cell (%d,%d) = %d, per-cell pairPopcount %d (WordRows %d, Cols %d, masked %v)",
		path, i, j, got, want, p.WordRows, p.Cols, masked)
}

// randomBlockMatrix draws a cols-column matrix over wordRows word rows
// whose 4-column groups are all dense, all sparse or mixed, with empty
// and all-ones columns among them; a column is dense when it stores at
// least threshold words.
func randomBlockMatrix(rng *rand.Rand, wordRows, cols, threshold int) *Packed {
	var entries []PackedEntry
	var groupKind int
	for j := 0; j < cols; j++ {
		if j%blockEdge == 0 {
			groupKind = rng.Intn(3) // 0 dense, 1 sparse, 2 mixed
		}
		isDense := groupKind == 0 || (groupKind == 2 && rng.Intn(2) == 0)
		count := 0
		switch {
		case isDense:
			count = threshold + rng.Intn(wordRows-threshold+1)
		case rng.Intn(4) > 0:
			count = rng.Intn(threshold)
		}
		ones := rng.Intn(8) == 0
		for _, w := range rng.Perm(wordRows)[:count] {
			word := rng.Uint64() | 1
			if ones {
				word = ^uint64(0)
			}
			entries = append(entries, PackedEntry{WordRow: w, Col: j, Word: word})
		}
	}
	return FromEntriesThreshold(entries, wordRows, cols, 64, wordRows*64, threshold)
}

// randomBlockMask returns nil or a mask keeping each pair with one
// probability, or keeping or dropping whole 4×4 blocks at once.
func randomBlockMask(rng *rand.Rand, n int) *PairMask {
	mode := rng.Intn(5)
	if mode == 0 {
		return nil
	}
	mask := NewPairMask(n)
	keep := []float64{0.95, 0.6, 0.15}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var on bool
			if mode == 4 {
				on = (i/blockEdge+j/blockEdge)%2 == 0
			} else {
				on = rng.Float64() < keep[mode-1]
			}
			if on {
				mask.Set(i, j)
			}
		}
	}
	return mask
}

// blockTags classifies the full 4×4 blocks the walk meets in the a×b
// product. Output tiles start and end on multiples of four columns (tile
// edges are multiples of eight) except at the last column, so the blocks
// are the column groups [4g, 4g+4).
func blockTags(a, b *Packed, tri bool, mask *PairMask) []string {
	var tags []string
	groupKind := func(p *Packed, g int) string {
		nd := 0
		for c := 0; c < blockEdge; c++ {
			if p.IsDense(g*blockEdge + c) {
				nd++
			}
		}
		switch nd {
		case blockEdge:
			return "dense"
		case 0:
			return "sparse"
		}
		return "mixed"
	}
	anyDense := false
	for gi := 0; (gi+1)*blockEdge <= a.Cols; gi++ {
		gj0 := 0
		if tri {
			gj0 = gi
		}
		for gj := gj0; (gj+1)*blockEdge <= b.Cols; gj++ {
			ka, kb := groupKind(a, gi), groupKind(b, gj)
			if ka == "mixed" || kb == "mixed" || ka != kb {
				tags = append(tags, "mixed-block")
			}
			if ka != "dense" || kb != "dense" {
				continue
			}
			all := blockKeep(gi*blockEdge, blockEdge, gj*blockEdge, blockEdge, tri, nil)
			kept := blockKeep(gi*blockEdge, blockEdge, gj*blockEdge, blockEdge, tri, mask)
			switch {
			case kept == 0:
				tags = append(tags, "fully-masked-block")
				continue
			case kept != all:
				tags = append(tags, "partly-masked-block")
			}
			if bits.OnesCount16(kept) < minBlockCells {
				continue
			}
			anyDense = true
			if gi == gj && tri {
				tags = append(tags, "diagonal-block")
			} else {
				tags = append(tags, "full-dense-block")
			}
		}
	}
	if a.Cols%blockEdge != 0 || b.Cols%blockEdge != 0 {
		tags = append(tags, "tile-remainder")
	}
	if anyDense && a.WordRows < 8 {
		tags = append(tags, "wordrows<8")
	}
	if anyDense && a.WordRows > 8 && a.WordRows%8 != 0 {
		tags = append(tags, "wordrows%8!=0")
	}
	return tags
}

// BenchmarkDenseGramBlock is a scaled dense-mem batch on the triangle
// path: 1 000 dense columns of 512 word rows (each batch of the dense-mem
// workload packs 32 768 shared rows into 512-word slabs), two workers, a
// warm arena. It reports the word pairs ANDed per second over the
// n(n+1)/2 cells.
func BenchmarkDenseGramBlock(b *testing.B) {
	const cols, wordRows = 1000, 512
	rng := rand.New(rand.NewSource(58))
	entries := make([]PackedEntry, 0, cols*wordRows)
	for j := 0; j < cols; j++ {
		for w := 0; w < wordRows; w++ {
			entries = append(entries, PackedEntry{WordRow: w, Col: j, Word: rng.Uint64()})
		}
	}
	p := FromEntriesThreshold(entries, wordRows, cols, 64, wordRows*64, DenseAuto)
	tri := NewTriangle[uint32](cols)
	arena := NewArena()
	ctx := context.Background()
	run := func() {
		if err := GramAccumulateTriangle(ctx, p, tri, 2, arena, nil); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the arena's tile slots
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		run()
	}
	pairs := float64(cols*(cols+1)/2) * wordRows * float64(b.N)
	b.ReportMetric(pairs/time.Since(start).Seconds(), "wordpairs/s")
}
