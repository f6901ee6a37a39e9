package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// TestStreamCollectMatchesLegacy drives Engine.Stream with a collecting
// sink across the Procs × BatchCount × Workers × DenseThreshold
// equivalence grid (sequential points included as Procs = 1, with a tile
// height forcing multiple row-band tiles) and requires the reassembled
// B, S and D to be byte-identical — exact int64/float64 equality, not
// tolerance — to the legacy gathered Result of Engine.Similarity at the
// same point. It also checks the streaming Result carries no matrices and
// records the streaming stats.
func TestStreamCollectMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(2027))
	intEq := func(a, b int64) bool { return a == b }
	floatEq := func(a, b float64) bool { return a == b }
	ctx := context.Background()

	for _, procs := range []int{1, 2, 4, 9, 12} {
		n := 13
		if procs == 4 {
			n = 11
		}
		ds := randomDataset(rng, n, uint64(300+rng.Intn(900)), 0.03+rng.Float64()*0.05)
		for _, batches := range []int{1, 3, 7} {
			for _, workers := range []int{1, 4} {
				for _, dt := range []int{-1, 0, 1} {
					name := fmt.Sprintf("p%d_l%d_w%d_dt%d", procs, batches, workers, dt)
					t.Run(name, func(t *testing.T) {
						opts := DefaultOptions()
						opts.Procs = procs
						opts.BatchCount = batches
						opts.Workers = workers
						opts.DenseThreshold = dt
						opts.TileRows = 3 // several tiles even at these small n
						if procs == 9 {
							opts.Replication = 3
							opts.MaskBits = 32
						}
						e, err := NewEngine(opts)
						if err != nil {
							t.Fatal(err)
						}
						legacy, err := e.Similarity(ctx, ds)
						if err != nil {
							t.Fatal(err)
						}
						collect := tile.NewCollect()
						streamed, err := e.Stream(ctx, ds, collect)
						if err != nil {
							t.Fatal(err)
						}
						if streamed.B != nil || streamed.S != nil || streamed.D != nil {
							t.Error("streaming Result must not carry assembled matrices")
						}
						if !sparse.Equal(legacy.B, collect.B(), intEq) {
							t.Error("streamed B differs from legacy gather")
						}
						if !sparse.Equal(legacy.S, collect.S(), floatEq) {
							t.Error("streamed S not byte-identical to legacy gather")
						}
						if !sparse.Equal(legacy.D, collect.D(), floatEq) {
							t.Error("streamed D not byte-identical to legacy gather")
						}
						if collect.N() != n || len(collect.Names()) != n {
							t.Errorf("sink saw n=%d with %d names, want %d", collect.N(), len(collect.Names()), n)
						}
						if streamed.Stats.TilesEmitted == 0 {
							t.Error("streaming run must count emitted tiles")
						}
						if procs == 1 && streamed.Stats.TilesEmitted != (n+2)/3 {
							t.Errorf("sequential TileRows=3 over n=%d emitted %d tiles, want %d",
								n, streamed.Stats.TilesEmitted, (n+2)/3)
						}
						if streamed.Stats.PeakTileWords <= 0 {
							t.Error("streaming run must record the peak tile footprint")
						}
						for i := 0; i < n; i++ {
							if streamed.Cardinalities[i] != legacy.Cardinalities[i] {
								t.Fatalf("cardinality mismatch for sample %d", i)
							}
						}
					})
				}
			}
		}
	}
}

// TestStreamReducersMatchPostHoc checks that the TopK and Threshold sinks
// agree exactly with post-hoc filtering of the full gathered matrix under
// the shared deterministic pair order, on both execution paths.
func TestStreamReducersMatchPostHoc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	ds := randomDataset(rng, 14, 500, 0.08)

	for _, procs := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Procs = procs
		opts.BatchCount = 2
		opts.TileRows = 4
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := e.Similarity(ctx, ds)
		if err != nil {
			t.Fatal(err)
		}
		var all []tile.Pair
		for i := 0; i < full.N; i++ {
			for j := i + 1; j < full.N; j++ {
				all = append(all, tile.Pair{I: i, J: j, Similarity: full.S.At(i, j)})
			}
		}
		tile.SortPairs(all)

		for _, k := range []int{1, 5, 1000} {
			sink := tile.NewTopK(k)
			if _, err := e.Stream(ctx, ds, sink); err != nil {
				t.Fatal(err)
			}
			want := all
			if len(want) > k {
				want = all[:k]
			}
			got := sink.Pairs()
			if len(got) != len(want) {
				t.Fatalf("procs=%d k=%d: got %d pairs, want %d", procs, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("procs=%d k=%d pair %d: got %+v, want %+v", procs, k, i, got[i], want[i])
				}
			}
		}

		for _, tau := range []float64{0, 0.05, 0.5} {
			sink := tile.NewThreshold(tau)
			if _, err := e.Stream(ctx, ds, sink); err != nil {
				t.Fatal(err)
			}
			var want []tile.Pair
			for _, p := range all {
				if p.Similarity >= tau {
					want = append(want, p)
				}
			}
			got := sink.Pairs()
			if len(got) != len(want) {
				t.Fatalf("procs=%d tau=%v: got %d pairs, want %d", procs, tau, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("procs=%d tau=%v pair %d: got %+v, want %+v", procs, tau, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEngineReuse runs one engine several times (mixing Similarity and
// Stream) and checks results stay identical — the amortised setup must not
// leak state between calls.
func TestEngineReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := randomDataset(rng, 9, 400, 0.07)
	e, err := NewEngine(Options{BatchCount: 2, MaskBits: 64, Procs: 4, Replication: 2, Workers: 2, TileRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := e.Similarity(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		again, err := e.Similarity(ctx, ds)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(ref.S, again.S, func(a, b float64) bool { return a == b }) {
			t.Fatalf("round %d: reused engine produced a different S", round)
		}
		collect := tile.NewCollect()
		if _, err := e.Stream(ctx, ds, collect); err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(ref.S, collect.S(), func(a, b float64) bool { return a == b }) {
			t.Fatalf("round %d: reused engine streamed a different S", round)
		}
	}
}

// failingSink errors on the second tile; the run must abort and surface
// the sink error on both paths.
type failingSink struct{ emits int }

func (f *failingSink) Emit(*tile.Tile) error {
	f.emits++
	if f.emits >= 2 {
		return fmt.Errorf("sink full")
	}
	return nil
}

func TestStreamSinkErrorAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ds := randomDataset(rng, 12, 400, 0.08)
	for _, procs := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Procs = procs
		opts.TileRows = 2
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Stream(context.Background(), ds, &failingSink{})
		if err == nil || !strings.Contains(err.Error(), "sink full") {
			t.Fatalf("procs=%d: want sink error, got %v", procs, err)
		}
	}
}

func TestStreamRequiresSink(t *testing.T) {
	e, err := NewEngine(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ds := MustInMemoryDataset(nil, [][]uint64{{1}, {2}}, 10)
	if _, err := e.Stream(context.Background(), ds, nil); err == nil {
		t.Error("Stream(nil sink) must error")
	}
}

// TestGatheredLocalRunHoldsThreeMatrices pins the output footprint of
// Engine.Similarity on the local target: n² is the large term, and the run
// may allocate B, S and D — the single emitted tile is the result itself —
// but no fourth n×n buffer (a band copied into a collecting sink would).
func TestGatheredLocalRunHoldsThreeMatrices(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(13))
	ds := randomDataset(rng, n, 4096, 0.002) // sparse: the batch cycle allocates little
	opts := DefaultOptions()
	opts.Workers = 1
	opts.BatchCount = 2
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := e.Similarity(context.Background(), ds)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const matrices, slack = 3 * 8 * n * n, 1 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > matrices+slack {
		t.Errorf("gathered local run allocated %d bytes, want <= %d (three %d×%d matrices) + %d slack", got, matrices, n, n, slack)
	}
	if res.Stats.TilesEmitted != 1 || res.Stats.PeakTileWords != 3*n*n {
		t.Errorf("gathered local run emitted %d tiles, peak %d words; want one tile of %d words",
			res.Stats.TilesEmitted, res.Stats.PeakTileWords, 3*n*n)
	}
	if &res.S.Data[0] == &res.D.Data[0] || len(res.B.Data) != n*n {
		t.Error("gathered matrices are not three distinct n×n buffers")
	}
}
