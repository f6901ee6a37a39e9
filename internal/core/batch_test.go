package core

import (
	"context"
	"math/rand"
	"testing"

	"genomeatscale/internal/tile"
)

// localBatchDataset draws n samples over a universe of m attributes, each
// attribute present in a sample with probability density·(1 ± spread).
func localBatchDataset(n int, m uint64, density, spread float64) *InMemoryDataset {
	rng := rand.New(rand.NewSource(1))
	samples := make([][]uint64, n)
	for j := range samples {
		p := density * (1 - spread + 2*spread*rng.Float64())
		for v := uint64(0); ; {
			// Geometric gaps: each attribute is present with probability p.
			v += 1 + uint64(rng.ExpFloat64()/p)
			if v >= m {
				break
			}
			samples[j] = append(samples[j], v)
		}
	}
	return MustInMemoryDataset(nil, samples, m)
}

// BenchmarkLocalBatch runs the local target's batch loop — slice, filter,
// pack, Gram — and the banded finish into a discarding sink with two
// workers, and reports the packed rows per run as active_rows/op. Two
// shapes:
//
//   - sparse: a scaled-down sparse-files corpus, 192 samples over a 2^21
//     universe at an average density of 4·10⁻⁴ (±20 % per sample), over 8
//     batches; every batch takes the bitset form of the filter.
//   - dense: a scaled-down dense-mem corpus, 1 000 samples over a 2^14
//     universe at density 0.0125, over 2 batches; its B/op is dominated by
//     the n(n+1)/2-cell Gram accumulator and the TileRows × n band buffers.
func BenchmarkLocalBatch(b *testing.B) {
	for _, bc := range []struct {
		name    string
		ds      *InMemoryDataset
		batches int
	}{
		{"sparse", localBatchDataset(192, 1<<21, 4e-4, 0.2), 8},
		{"dense", localBatchDataset(1000, 1<<14, 0.0125, 0), 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.BatchCount, opts.Workers = bc.batches, 2
			e, err := NewEngine(opts)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var active int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := e.Stream(ctx, bc.ds, tile.Discard)
				if err != nil {
					b.Fatal(err)
				}
				active = 0
				for _, a := range res.Stats.ActiveRowsPerBatch {
					active += a
				}
			}
			b.ReportMetric(float64(active), "active_rows/op")
		})
	}
}

// BenchmarkGridBatch runs the grid target's batch loop — slice, filter
// exchange, pack, panel routing and broadcast, Gram — and the tile emission
// into a discarding sink, on the grid-tcp corpus scaled down to 192 samples
// over a 2^21 universe at an average density of 6·10⁻⁴ (±20 % per sample),
// over 4 batches with one worker per rank. It reports the packed rows per
// run as active_rows/op and the BSP bytes of all ranks as comm_bytes/op.
// Two grids:
//
//   - 1rank: one rank over a one-rank in-memory transport, the grid
//     target's own cost without peers;
//   - 4ranks: four in-process ranks on a 2 × 2 grid.
func BenchmarkGridBatch(b *testing.B) {
	ds := localBatchDataset(192, 1<<21, 6e-4, 0.2)
	for _, bc := range []struct {
		name  string
		procs int
	}{{"1rank", 1}, {"4ranks", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.BatchCount, opts.Workers, opts.Procs = 4, 1, bc.procs
			ctx := context.Background()
			var active, comm int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.procs == 1 {
					// A transport endpoint serves one run.
					b.StopTimer()
					opts = oneRankGrid(opts)
					b.StartTimer()
				}
				e, err := NewEngine(opts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := e.Stream(ctx, ds, tile.Discard)
				if err != nil {
					b.Fatal(err)
				}
				active, comm = 0, res.Stats.Comm.TotalBytes
				for _, a := range res.Stats.ActiveRowsPerBatch {
					active += a
				}
			}
			b.ReportMetric(float64(active), "active_rows/op")
			b.ReportMetric(float64(comm), "comm_bytes/op")
		})
	}
}
