package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bsp"
	"genomeatscale/internal/semiring"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

func TestContextGridAndOwnership(t *testing.T) {
	const n = 17
	for _, cfg := range []struct{ procs, repl int }{
		{1, 1}, {2, 1}, {4, 2}, {6, 3}, {8, 2}, {9, 1}, {12, 3},
	} {
		owned := make([][]int, cfg.procs)
		_, err := bsp.Run(cfg.procs, func(p *bsp.Proc) error {
			ctx := NewContext(p, cfg.repl)
			if got := ctx.Grid.Size(); got != cfg.procs {
				return fmt.Errorf("grid %s uses %d ranks, want %d", ctx.Grid, got, cfg.procs)
			}
			if r, c, l := ctx.Grid.Coords(p.Rank()); r != ctx.Row || c != ctx.Col || l != ctx.Layer {
				return fmt.Errorf("rank %d coords mismatch", p.Rank())
			}
			owned[p.Rank()] = ctx.OwnedSamples(n)
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d c=%d: %v", cfg.procs, cfg.repl, err)
		}
		seen := make([]int, n)
		for rank, items := range owned {
			for _, i := range items {
				if i%cfg.procs != rank {
					t.Fatalf("p=%d: rank %d owns sample %d, not cyclic", cfg.procs, rank, i)
				}
				seen[i]++
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d: sample %d owned %d times", cfg.procs, i, c)
			}
		}
	}
}

func TestFilterVectorReplicate(t *testing.T) {
	const procs = 5
	const length = 100
	// Every rank writes an overlapping, unsorted, duplicated set of rows;
	// Replicate must return the global sorted distinct union on all ranks.
	want := map[int64]bool{}
	writes := make([][]int64, procs)
	rng := rand.New(rand.NewSource(11))
	for r := 0; r < procs; r++ {
		for k := 0; k < 30; k++ {
			v := int64(rng.Intn(length))
			writes[r] = append(writes[r], v, v) // duplicates on purpose
			want[v] = true
		}
	}
	var wantSorted []int64
	for v := range want {
		wantSorted = append(wantSorted, v)
	}
	sort.Slice(wantSorted, func(i, j int) bool { return wantSorted[i] < wantSorted[j] })

	_, err := bsp.Run(procs, func(p *bsp.Proc) error {
		ctx := NewContext(p, 1)
		f := NewFilterVector(ctx, length)
		f.Write(writes[p.Rank()])
		got := f.Replicate()
		if len(got) != len(wantSorted) {
			return fmt.Errorf("rank %d: %d nonzero rows, want %d", p.Rank(), len(got), len(wantSorted))
		}
		for i := range got {
			if got[i] != wantSorted[i] {
				return fmt.Errorf("rank %d: row %d = %d, want %d", p.Rank(), i, got[i], wantSorted[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFilterVectorWriteOutOfRange(t *testing.T) {
	_, err := bsp.Run(1, func(p *bsp.Proc) error {
		ctx := NewContext(p, 1)
		f := NewFilterVector(ctx, 10)
		defer func() { recover() }()
		f.Write([]int64{10})
		return fmt.Errorf("out-of-range write must panic")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompact(t *testing.T) {
	got := Compact([]int64{5, 1, 5, 3, 1, 9})
	want := []int64{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Compact = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Compact = %v, want %v", got, want)
		}
	}
	if Compact(nil) != nil {
		t.Error("Compact(nil) should be nil")
	}
}

func TestJaccardEq2(t *testing.T) {
	cases := []struct {
		b, ci, cj int64
		want      float64
	}{
		{0, 0, 0, 0},      // J(∅, ∅) = 0: empty samples match nothing
		{3, 3, 3, 1},      // identical sets
		{2, 4, 6, 0.25},   // |∩|=2, |∪|=8
		{0, 3, 5, 0},      // disjoint
		{1, 1, 100, 0.01}, // skewed cardinalities
	}
	for _, c := range cases {
		if got := Jaccard(c.b, c.ci, c.cj); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Jaccard(%d,%d,%d) = %v, want %v", c.b, c.ci, c.cj, got, c.want)
		}
	}
}

// randomPacked builds a random packed batch matrix plus its entry list.
func randomPacked(rng *rand.Rand, activeRows, cols, maskBits int) *bitmat.Packed {
	rowsPerCol := make([][]int, cols)
	for j := 0; j < cols; j++ {
		seen := map[int]bool{}
		count := 1 + rng.Intn(activeRows)
		for len(rowsPerCol[j]) < count {
			r := rng.Intn(activeRows)
			if !seen[r] {
				seen[r] = true
				rowsPerCol[j] = append(rowsPerCol[j], r)
			}
		}
		sort.Ints(rowsPerCol[j])
	}
	return bitmat.PackColumns(rowsPerCol, activeRows, maskBits)
}

// collectTiles gathers a run's result the way the engine does: every rank
// joins the EmitTiles collective and rank 0 assembles the tiles in a
// collecting sink (nil elsewhere).
func collectTiles(p *bsp.Proc, blocks *Blocks, n int) (*tile.Collect, error) {
	var c *tile.Collect
	emit := func(*tile.Tile) error { return nil }
	if p.Rank() == 0 {
		c = tile.NewCollect()
		if err := c.Start(n, nil); err != nil {
			return nil, err
		}
		emit = c.Emit
	}
	return c, blocks.EmitTiles(0, emit)
}

// TestGramEngineMatchesLocalGram feeds the engine a random batch (entries
// distributed by cyclic column ownership, as core does) and checks the
// gathered B against the single-process Gram of the same packed matrix,
// across grid shapes including ragged column counts and multiple layers.
func TestGramEngineMatchesLocalGram(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, cfg := range []struct{ procs, repl, cols, maskBits int }{
		{1, 1, 7, 64},
		{2, 1, 9, 32},
		{2, 2, 9, 32},
		{4, 1, 13, 64},
		{4, 2, 13, 8},
		{6, 1, 10, 64},
		{8, 2, 13, 64},
		{9, 1, 13, 32},
		{12, 3, 13, 64},
	} {
		t.Run(fmt.Sprintf("p%d_c%d_n%d_b%d", cfg.procs, cfg.repl, cfg.cols, cfg.maskBits), func(t *testing.T) {
			activeRows := 50 + rng.Intn(150)
			packed := randomPacked(rng, activeRows, cfg.cols, cfg.maskBits)
			want := packed.Gram()
			counts := packed.ColPopcounts()
			all := packed.Entries()

			var got *sparse.Dense[int64]
			var gotS *sparse.Dense[float64]
			stats, err := bsp.Run(cfg.procs, func(p *bsp.Proc) error {
				ctx := NewContext(p, cfg.repl)
				// workers: 2 exercises the tiled parallel local kernel under
				// every grid shape; results must be identical to serial.
				engine := NewGramEngine(ctx, cfg.cols, 2, bitmat.DenseAuto)
				var mine []bitmat.PackedEntry
				for _, e := range all {
					if e.Col%cfg.procs == p.Rank() {
						mine = append(mine, e)
					}
				}
				engine.AddBatch(mine, packed.WordRows, cfg.maskBits, activeRows)
				blocks := engine.Finalize(counts)
				c, err := collectTiles(p, blocks, cfg.cols)
				if p.Rank() == 0 {
					got, gotS = c.B(), c.S()
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(want, got, func(a, b int64) bool { return a == b }) {
				t.Fatal("gathered B differs from local Gram")
			}
			for i := 0; i < cfg.cols; i++ {
				for j := 0; j < cfg.cols; j++ {
					wantS := Jaccard(want.At(i, j), counts[i], counts[j])
					if math.Abs(gotS.At(i, j)-wantS) > 1e-12 {
						t.Fatalf("S[%d][%d] = %v, want %v", i, j, gotS.At(i, j), wantS)
					}
				}
			}
			if cfg.procs > 1 {
				if stats.TotalBytes == 0 {
					t.Error("multi-rank engine run must move bytes")
				}
				if stats.SumHRelations() == 0 {
					t.Error("per-superstep h-relations must be nonzero")
				}
			}
		})
	}
}

// TestGramEngineAccumulatesBatches splits one matrix's word rows into two
// AddBatch calls with different active row spaces and checks the engine
// sums them (Eq. 4).
func TestGramEngineAccumulatesBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const cols = 8
	const maskBits = 16
	a := randomPacked(rng, 64, cols, maskBits)
	b := randomPacked(rng, 48, cols, maskBits)
	want := a.Gram()
	want.AddInto(b.Gram(), semiring.PlusInt64())
	counts := a.ColPopcounts()
	for j, v := range b.ColPopcounts() {
		counts[j] += v
	}

	var got *sparse.Dense[int64]
	_, err := bsp.Run(4, func(p *bsp.Proc) error {
		ctx := NewContext(p, 2)
		engine := NewGramEngine(ctx, cols, 0, bitmat.DenseAuto) // 0 = all CPUs

		for _, batch := range []*bitmat.Packed{a, b} {
			var mine []bitmat.PackedEntry
			for _, e := range batch.Entries() {
				if e.Col%4 == p.Rank() {
					mine = append(mine, e)
				}
			}
			engine.AddBatch(mine, batch.WordRows, maskBits, batch.ActiveRows)
		}
		blocks := engine.Finalize(counts)
		c, err := collectTiles(p, blocks, cols)
		if p.Rank() == 0 {
			got = c.B()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(want, got, func(x, y int64) bool { return x == y }) {
		t.Fatal("two-batch accumulation differs from sum of local Grams")
	}
}

// TestGramEngineEmptyBatch: an all-empty batch must be a safe no-op on
// every grid shape (the collective sequence still has to line up).
func TestGramEngineEmptyBatch(t *testing.T) {
	for _, procs := range []int{1, 4, 6} {
		var got *sparse.Dense[int64]
		_, err := bsp.Run(procs, func(p *bsp.Proc) error {
			ctx := NewContext(p, 2)
			engine := NewGramEngine(ctx, 5, 1, bitmat.DenseAuto)
			engine.AddBatch(nil, 0, 64, 0)
			blocks := engine.Finalize(make([]int64, 5))
			c, err := collectTiles(p, blocks, 5)
			if p.Rank() == 0 {
				got = c.B()
			}
			return err
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for _, v := range got.Data {
			if v != 0 {
				t.Fatalf("procs=%d: empty batch produced nonzero B", procs)
			}
		}
	}
}
