package core

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"genomeatscale/internal/bitmat"
)

var sharedRowsSeed = flag.Int64("sharedrows.seed", 0, "run TestSharedRowsRandomized for this seed only (as printed by a failure)")

// TestSharedRowsRandomized draws singleton-heavy datasets for the local
// target, whose filter keeps only the rows two kept columns share: one
// sample, samples with no row in common, exactly one shared row, empty
// samples, prescreening on and off, and universes small enough for the
// bitset form of the filter and large enough for the list form. Every
// batch's ActiveRowsPerBatch must equal a brute-force count of the rows
// two kept columns share, and B and S must equal the intersectionSize and
// ExactJaccard oracle (zero for the pairs the prescreen mask prunes). Each
// case without a prescreen also runs on in-process grids of 4 and 9 ranks
// (one and two layers where the grid allows it), which must pack the same
// rows — whether a shared row's holders sit on one rank or on two — and
// give the same B and S. A failure names its seed; re-run it alone with
// -sharedrows.seed.
func TestSharedRowsRandomized(t *testing.T) {
	if *sharedRowsSeed != 0 {
		if _, err := sharedRowsCase(*sharedRowsSeed); err != nil {
			t.Fatalf("seed %d: %v", *sharedRowsSeed, err)
		}
		return
	}
	seen := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		tags, err := sharedRowsCase(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, tag := range tags {
			seen[tag]++
		}
	}
	for _, tag := range []string{"n=1", "private", "one-shared", "singletons", "crowded", "empty-sample",
		"prescreen", "no-prescreen", "bitset-batch", "list-batch", "no-shared-batch", "shared-batch",
		"grid-across-ranks", "grid-within-rank"} {
		if seen[tag] == 0 {
			t.Errorf("no case covered %s: %v", tag, seen)
		}
	}
}

// sharedRowsRegimes are the ways a case spreads a pool of rows over its
// samples.
var sharedRowsRegimes = []string{"private", "one-shared", "singletons", "crowded"}

// sharedRowsCase runs one seeded case and returns the tags of what it
// covered.
func sharedRowsCase(seed int64) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 1
	if rng.Intn(6) != 0 {
		n = 2 + rng.Intn(11)
	}
	m := uint64(1) << 62 // the list form in every batch
	if rng.Intn(2) == 0 {
		m = uint64(1 + rng.Intn(3000)) // mostly the bitset form
	}
	// A pool of distinct rows; the regime decides which samples hold each.
	pool := make([]uint64, 1+rng.Intn(120))
	for k := range pool {
		pool[k] = uint64(rng.Int63n(int64(m)))
	}
	slices.Sort(pool)
	pool = slices.Compact(pool)
	regime := sharedRowsRegimes[rng.Intn(len(sharedRowsRegimes))]
	samples := make([][]uint64, n)
	switch regime {
	case "private", "one-shared":
		for k, v := range pool {
			samples[k%n] = append(samples[k%n], v)
		}
		if regime == "one-shared" && n > 1 {
			// pool[0] belongs to sample 0; one other sample shares it.
			j := 1 + rng.Intn(n-1)
			samples[j] = append(samples[j], pool[0])
		}
	case "singletons", "crowded":
		// Each sample holds each row with probability q: about half a
		// holder per row among singletons, several among crowded.
		q := 0.5 / float64(n)
		if regime == "crowded" {
			q = 0.3 + 0.5*rng.Float64()
		}
		for _, v := range pool {
			for j := range samples {
				if rng.Float64() < q {
					samples[j] = append(samples[j], v)
				}
			}
		}
	}
	tags := []string{regime}
	if n == 1 {
		tags = append(tags, "n=1")
	}
	for j := range samples {
		if rng.Intn(6) == 0 {
			samples[j] = nil
			tags = append(tags, "empty-sample")
		}
	}
	ds := MustInMemoryDataset(nil, samples, m)

	opts := DefaultOptions()
	opts.BatchCount = 1 + rng.Intn(6)
	opts.MaskBits = 1 + rng.Intn(64)
	opts.Workers = 1 + rng.Intn(3)
	opts.DenseThreshold = rng.Intn(4) - 1
	opts.TileRows = rng.Intn(n + 2)
	prescreened := rng.Intn(3) == 0
	if prescreened {
		opts.Sketch = SketchOptions{Size: 4 + rng.Intn(60), Threshold: []float64{0.05, 0.3, 0.6, 1}[rng.Intn(4)]}
		opts.SetExplicit(FieldSketchSize)
		tags = append(tags, "prescreen")
	} else {
		tags = append(tags, "no-prescreen")
	}
	desc := fmt.Sprintf("n=%d m=%d rows=%d regime=%s batches=%d b=%d workers=%d dt=%d tilerows=%d sketch=%+v",
		n, m, len(pool), regime, opts.BatchCount, opts.MaskBits, opts.Workers, opts.DenseThreshold, opts.TileRows, opts.Sketch)

	e, err := NewEngine(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", desc, err)
	}
	ctx := context.Background()
	var mask *bitmat.PairMask
	if prescreened {
		// The engine's own prescreen is deterministic: the same call gives
		// the mask the run gates on.
		cfg, err := e.configFor(ds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", desc, err)
		}
		if mask, _, err = prescreen(ctx, ds, n, m, cfg); err != nil {
			return nil, fmt.Errorf("%s: prescreen: %w", desc, err)
		}
	}
	res, err := e.Similarity(ctx, ds)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", desc, err)
	}

	// Brute force: per batch, the rows that at least two kept columns hold.
	wantActive := make([]int64, opts.BatchCount)
	holders := make([]map[uint64][]int, opts.BatchCount) // each row's kept holders, per batch
	for l := range wantActive {
		lo, hi := batchBounds(m, opts.BatchCount, l)
		holders[l] = map[uint64][]int{}
		values := 0
		for j := 0; j < n; j++ {
			if mask != nil && !mask.AnyPartnerOffDiag(j) {
				continue
			}
			for _, v := range ds.Sample(j) {
				if v >= lo && v < hi {
					holders[l][v] = append(holders[l][v], j)
					values++
				}
			}
		}
		for _, h := range holders[l] {
			if len(h) >= 2 {
				wantActive[l]++
			}
		}
		// The filter's form rule (dist.RowRank.Reset), for coverage only.
		if words := (hi-lo)/64 + min((hi-lo)%64, 1); words <= uint64(values) {
			tags = append(tags, "bitset-batch")
		} else {
			tags = append(tags, "list-batch")
		}
		if wantActive[l] == 0 {
			tags = append(tags, "no-shared-batch")
		} else {
			tags = append(tags, "shared-batch")
		}
	}
	if err := checkSharedRun(res, ds, mask, wantActive); err != nil {
		return nil, fmt.Errorf("%s: %w", desc, err)
	}
	if prescreened {
		return tags, nil
	}

	for _, g := range []struct{ procs, layers int }{{4, 1}, {4, 2}, {9, 1}} {
		gopts := opts
		gopts.Procs, gopts.Replication = g.procs, g.layers
		res, err := run(ds, gopts)
		if err != nil {
			return nil, fmt.Errorf("%s grid p=%d c=%d: %w", desc, g.procs, g.layers, err)
		}
		if err := checkSharedRun(res, ds, nil, wantActive); err != nil {
			return nil, fmt.Errorf("%s grid p=%d c=%d: %w", desc, g.procs, g.layers, err)
		}
		// Samples are owned cyclically (grid.CyclicItems): a shared row
		// whose holders all sit on different ranks reaches the filter only
		// through the ranks' seen sets, one held twice on a rank through
		// that rank's multi set.
		for _, byRow := range holders {
			for _, h := range byRow {
				ranks := map[int]bool{}
				for _, j := range h {
					ranks[j%g.procs] = true
				}
				switch {
				case len(h) < 2:
				case len(ranks) == len(h):
					tags = append(tags, "grid-across-ranks")
				default:
					tags = append(tags, "grid-within-rank")
				}
			}
		}
	}
	return tags, nil
}

// checkSharedRun checks a run of the shared-row case against the brute
// force: wantActive rows per batch, the exact cardinalities, and B and S
// equal to the intersectionSize and ExactJaccard oracle (zero for the pairs
// a non-nil prescreen mask prunes).
func checkSharedRun(res *Result, ds *InMemoryDataset, mask *bitmat.PairMask, wantActive []int64) error {
	if got := len(res.Stats.ActiveRowsPerBatch); got != len(wantActive) {
		return fmt.Errorf("%d batches of active rows, want %d", got, len(wantActive))
	}
	for l, want := range wantActive {
		if got := res.Stats.ActiveRowsPerBatch[l]; got != want {
			return fmt.Errorf("batch %d packed %d rows, want the %d rows two kept columns share", l, got, want)
		}
	}
	n := ds.NumSamples()
	wantS := ExactJaccard(ds)
	for i := 0; i < n; i++ {
		if got, want := res.Cardinalities[i], int64(len(ds.Sample(i))); got != want {
			return fmt.Errorf("cardinality %d of sample %d, want %d", got, i, want)
		}
		for j := 0; j < n; j++ {
			wantB, wantSij := int64(intersectionSize(ds.Sample(i), ds.Sample(j))), wantS.At(i, j)
			if mask != nil && !mask.Pair(i, j) {
				wantB, wantSij = 0, 0
			}
			if got := res.B.At(i, j); got != wantB {
				return fmt.Errorf("B[%d][%d] = %d, want %d", i, j, got, wantB)
			}
			if got := res.S.At(i, j); !approxEqual(got, wantSij) {
				return fmt.Errorf("S[%d][%d] = %v, want %v", i, j, got, wantSij)
			}
		}
	}
	return nil
}
