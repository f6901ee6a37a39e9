package core

import (
	"context"
	"math/rand"
	"testing"

	"genomeatscale/internal/tile"
)

// localBatchDataset is a scaled-down sparse-files corpus: 192 samples over a
// 2^21 universe at an average density of 4·10⁻⁴, each sample's density
// drawn within ±20 % of it. Over 8 batches every batch takes the bitset
// form of the filter.
func localBatchDataset() *InMemoryDataset {
	const n, m, density = 192, 1 << 21, 4e-4
	rng := rand.New(rand.NewSource(1))
	samples := make([][]uint64, n)
	for j := range samples {
		p := density * (0.8 + 0.4*rng.Float64())
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
// pack, Gram — over 8 batches with two workers into a discarding sink, and
// reports the packed rows per run as active_rows/op.
func BenchmarkLocalBatch(b *testing.B) {
	ds := localBatchDataset()
	opts := DefaultOptions()
	opts.BatchCount, opts.Workers = 8, 2
	e, err := NewEngine(opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var active int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Stream(ctx, ds, tile.Discard)
		if err != nil {
			b.Fatal(err)
		}
		active = 0
		for _, a := range res.Stats.ActiveRowsPerBatch {
			active += a
		}
	}
	b.ReportMetric(float64(active), "active_rows/op")
}
