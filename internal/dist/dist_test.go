package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bsp"
	"genomeatscale/internal/grid"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// newContext arranges the run's ranks as a processor grid with the
// requested replication factor and locates this rank in it.
func newContext(p *bsp.Proc, replication int) *Context {
	return NewContextWithGrid(p, grid.MustChoose(p.NProcs(), replication))
}

func TestContextGridAndOwnership(t *testing.T) {
	const n = 17
	for _, cfg := range []struct{ procs, repl int }{
		{1, 1}, {2, 1}, {4, 2}, {6, 3}, {8, 2}, {9, 1}, {12, 3},
	} {
		owned := make([][]int, cfg.procs)
		_, err := bsp.Run(cfg.procs, func(p *bsp.Proc) error {
			ctx := newContext(p, cfg.repl)
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
	// Every rank writes an overlapping, unsorted set of rows, each row
	// twice: every written row is shared, so Replicate must rank the global
	// sorted distinct union on all ranks.
	want := map[int64]bool{}
	writes := make([][]uint64, procs)
	rng := rand.New(rand.NewSource(11))
	for r := 0; r < procs; r++ {
		for k := 0; k < 30; k++ {
			v := int64(rng.Intn(length))
			writes[r] = append(writes[r], uint64(v), uint64(v)) // twice: shared
			want[v] = true
		}
	}
	var wantSorted []int64
	for v := range want {
		wantSorted = append(wantSorted, v)
	}
	sort.Slice(wantSorted, func(i, j int) bool { return wantSorted[i] < wantSorted[j] })

	_, err := bsp.Run(procs, func(p *bsp.Proc) error {
		got, err := replicate(p, length, writes[p.Rank()])
		if err != nil {
			return err
		}
		if got.Count() != len(wantSorted) {
			return fmt.Errorf("rank %d: %d nonzero rows, want %d", p.Rank(), got.Count(), len(wantSorted))
		}
		for i, r := range wantSorted {
			if k, ok := got.Rank(uint64(r), 0); !ok || k != i {
				return fmt.Errorf("rank %d: row %d ranks (%d,%v), want (%d,true)", p.Rank(), r, k, ok, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFilterVectorWriteOutOfRange(t *testing.T) {
	// One value over 10 rows picks the bitset form, none the list form.
	for _, values := range []int{1, 0} {
		func() {
			var f RowRank
			f.Reset(10, values)
			defer func() {
				if recover() == nil {
					t.Fatalf("%d values: out-of-range mark must panic", values)
				}
			}()
			f.Mark([]uint64{15}, 5)
		}()
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
				ctx := newContext(p, cfg.repl)
				// workers: 2 exercises the tiled parallel local kernel under
				// every grid shape; results must be identical to serial.
				engine := NewGramEngine(ctx, cfg.cols, 2, bitmat.DenseAuto)
				var mine []bitmat.PackedEntry
				for _, e := range all {
					if e.Col%cfg.procs == p.Rank() {
						mine = append(mine, e)
					}
				}
				if err := engine.AddBatch(mine, packed.WordRows, cfg.maskBits, activeRows); err != nil {
					return err
				}
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
	for k, v := range b.Gram().Data {
		want.Data[k] += v
	}
	counts := a.ColPopcounts()
	for j, v := range b.ColPopcounts() {
		counts[j] += v
	}

	var got *sparse.Dense[int64]
	_, err := bsp.Run(4, func(p *bsp.Proc) error {
		ctx := newContext(p, 2)
		engine := NewGramEngine(ctx, cols, 0, bitmat.DenseAuto) // 0 = all CPUs

		for _, batch := range []*bitmat.Packed{a, b} {
			var mine []bitmat.PackedEntry
			for _, e := range batch.Entries() {
				if e.Col%4 == p.Rank() {
					mine = append(mine, e)
				}
			}
			if err := engine.AddBatch(mine, batch.WordRows, maskBits, batch.ActiveRows); err != nil {
				return err
			}
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
			ctx := newContext(p, 2)
			engine := NewGramEngine(ctx, 5, 1, bitmat.DenseAuto)
			if err := engine.AddBatch(nil, 0, 64, 0); err != nil {
				return err
			}
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

// corruptingTransport rewrites the payloads one rank sends, standing in for
// a peer whose bytes cannot be trusted.
type corruptingTransport struct {
	bsp.Transport
	corrupt func(any) any
}

func (c corruptingTransport) Exchange(step int, out []bsp.Message) ([]bsp.Message, error) {
	for i := range out {
		out[i].Payload = c.corrupt(out[i].Payload)
	}
	return c.Transport.Exchange(step, out)
}

// TestGramEngineRejectsPeerData: a peer's routed entries outside the
// receiving panel, or a panel of the wrong shape, fail the receiving rank's
// AddBatch with an error instead of a panic. (A rank that had already left
// the batch's last superstep completes; in a run, its next one fails.)
func TestGramEngineRejectsPeerData(t *testing.T) {
	const procs, cols, maskBits = 4, 12, 64
	packed := randomPacked(rand.New(rand.NewSource(41)), 300, cols, maskBits)
	all := packed.Entries()
	for _, c := range []struct {
		name, want string
		corrupt    func(any) any
	}{
		{"entry-outside-panel", "outside panel", func(v any) any {
			if es, ok := v.(entrySlice); ok && len(es) > 0 {
				bad := append(entrySlice(nil), es...)
				bad[0].WordRow = 1 << 40
				return bad
			}
			return v
		}},
		{"panel-wrong-shape", "panel", func(v any) any {
			if w, ok := v.(packedWire); ok {
				w.WordRows++
				return w
			}
			return v
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := bsp.MemCluster(procs)
			for r := range ts {
				ts[r] = corruptingTransport{Transport: ts[r], corrupt: c.corrupt}
			}
			_, errs := bsp.RunCluster(context.Background(), ts, func(p *bsp.Proc) error {
				engine := NewGramEngine(newContext(p, 1), cols, 1, bitmat.DenseAuto)
				var mine []bitmat.PackedEntry
				for _, e := range all {
					if e.Col%procs == p.Rank() {
						mine = append(mine, e)
					}
				}
				return engine.AddBatch(mine, packed.WordRows, maskBits, packed.ActiveRows)
			})
			found := false
			for r, err := range errs {
				if err == nil {
					continue
				}
				if strings.Contains(err.Error(), "panicked") {
					t.Fatalf("rank %d: %v", r, err)
				}
				found = found || strings.Contains(err.Error(), c.want)
			}
			if !found {
				t.Fatalf("no rank reports %q: %v", c.want, errs)
			}
		})
	}
}
