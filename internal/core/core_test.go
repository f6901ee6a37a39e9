package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"genomeatscale/internal/bsp"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

func approxEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// run is the tests' one-shot entry point: a throwaway engine for opts and
// the gathered result of Engine.Similarity.
func run(ds Dataset, opts Options) (*Result, error) {
	e, err := NewEngine(opts)
	if err != nil {
		return nil, err
	}
	return e.Similarity(context.Background(), ds)
}

// oneRankGrid returns opts configured to run the grid target at a single
// rank: Procs == 1 alone is a local run, so tests that want the BSP path
// there attach a one-rank in-memory transport.
func oneRankGrid(opts Options) Options {
	opts.Procs = 1
	opts.Transport = bsp.MemCluster(1)[0]
	return opts
}

func randomDataset(rng *rand.Rand, n int, m uint64, density float64) *InMemoryDataset {
	samples := make([][]uint64, n)
	for j := 0; j < n; j++ {
		expected := float64(m) * density
		count := int(expected)
		if count < 1 {
			count = 1 + rng.Intn(3)
		}
		for k := 0; k < count; k++ {
			samples[j] = append(samples[j], uint64(rng.Int63n(int64(m))))
		}
	}
	return MustInMemoryDataset(nil, samples, m)
}

func TestNewInMemoryDatasetValidation(t *testing.T) {
	if _, err := NewInMemoryDataset([]string{"a"}, [][]uint64{{1}, {2}}, 10); err == nil {
		t.Error("mismatched names should fail")
	}
	if _, err := NewInMemoryDataset(nil, [][]uint64{{10}}, 10); err == nil {
		t.Error("attribute ≥ m should fail")
	}
	ds, err := NewInMemoryDataset([]string{"x"}, [][]uint64{{3, 1, 3, 2}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := ds.Sample(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Sample(0) = %v, want sorted dedup [1 2 3]", got)
	}
	if ds.SampleName(0) != "x" {
		t.Errorf("SampleName = %q", ds.SampleName(0))
	}
	anon := MustInMemoryDataset(nil, [][]uint64{{1}}, 10)
	if anon.SampleName(0) != "sample-0" {
		t.Errorf("default name = %q", anon.SampleName(0))
	}
}

func TestMustInMemoryDatasetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustInMemoryDataset(nil, [][]uint64{{100}}, 10)
}

func TestBatchBoundsCoverUniverse(t *testing.T) {
	f := func(mRaw uint32, bRaw uint8) bool {
		m := uint64(mRaw%100000) + 1
		batches := int(bRaw%50) + 1
		var covered uint64
		prevHi := uint64(0)
		for l := 0; l < batches; l++ {
			lo, hi := batchBounds(m, batches, l)
			if lo > hi || lo < prevHi {
				return false
			}
			// Ranges may leave gaps only if lo jumped; they must be contiguous.
			if l > 0 && lo != prevHi {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == m && prevHi == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJaccardPairKnown(t *testing.T) {
	cases := []struct {
		x, y []uint64
		want float64
	}{
		{nil, nil, 0}, // J(∅, ∅) = 0: empty samples match nothing
		{[]uint64{1, 2, 3}, nil, 0},
		{[]uint64{1, 2, 3}, []uint64{1, 2, 3}, 1},
		{[]uint64{1, 2, 3}, []uint64{2, 3, 4}, 0.5},
		{[]uint64{1}, []uint64{2}, 0},
		{[]uint64{1, 2, 3, 4}, []uint64{3, 4, 5, 6, 7, 8}, 2.0 / 8.0},
	}
	for _, c := range cases {
		if got := JaccardPair(c.x, c.y); !approxEqual(got, c.want) {
			t.Errorf("JaccardPair(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
		if got := JaccardDistancePair(c.x, c.y); !approxEqual(got, 1-c.want) {
			t.Errorf("JaccardDistancePair(%v,%v) = %v, want %v", c.x, c.y, got, 1-c.want)
		}
	}
}

func TestExactJaccardProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := randomDataset(rng, 12, 500, 0.05)
	s := ExactJaccard(ds)
	d := func(i, j int) float64 { return 1 - s.At(i, j) } // Jaccard distance
	n := ds.NumSamples()
	for i := 0; i < n; i++ {
		if !approxEqual(s.At(i, i), 1) {
			t.Errorf("diagonal S[%d][%d] = %v", i, i, s.At(i, i))
		}
		for j := 0; j < n; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 {
				t.Errorf("S[%d][%d] = %v out of [0,1]", i, j, v)
			}
			if !approxEqual(v, s.At(j, i)) {
				t.Errorf("S not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Triangle inequality of the Jaccard distance (it is a metric).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if d(i, k) > d(i, j)+d(j, k)+1e-9 {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{BatchCount: 0, MaskBits: 64, Procs: 1, Replication: 1},
		{BatchCount: 1, MaskBits: 0, Procs: 1, Replication: 1},
		{BatchCount: 1, MaskBits: 65, Procs: 1, Replication: 1},
		{BatchCount: 1, MaskBits: 64, Procs: 0, Replication: 1},
		{BatchCount: 1, MaskBits: 64, Procs: 1, Replication: 0},
		{BatchCount: 1, MaskBits: 64, Procs: 1, Replication: 1, Workers: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestLocalMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(12)
		m := uint64(100 + rng.Intn(2000))
		ds := randomDataset(rng, n, m, 0.02+rng.Float64()*0.1)
		exact := ExactJaccard(ds)
		for _, batches := range []int{1, 3, 7} {
			for _, maskBits := range []int{16, 64} {
				opts := DefaultOptions()
				opts.BatchCount = batches
				opts.MaskBits = maskBits
				res, err := run(ds, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !sparse.Equal(exact, res.S, approxEqual) {
					t.Fatalf("trial %d batches=%d b=%d: sequential S differs from exact", trial, batches, maskBits)
				}
				for i := 0; i < n; i++ {
					if res.Cardinalities[i] != int64(len(ds.Sample(i))) {
						t.Fatalf("cardinality mismatch for sample %d", i)
					}
				}
				if res.Stats.Batches != batches {
					t.Fatalf("Stats.Batches = %d, want %d", res.Stats.Batches, batches)
				}
			}
		}
	}
}

func TestLocalEmptySamples(t *testing.T) {
	ds := MustInMemoryDataset(nil, [][]uint64{{}, {}, {1, 2}}, 10)
	res, err := run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(res.Similarity(0, 1), 0) {
		t.Errorf("empty vs empty similarity = %v, want 0 (J(∅, ∅) = 0)", res.Similarity(0, 1))
	}
	if !approxEqual(res.Similarity(0, 0), 0) {
		t.Errorf("empty self-similarity = %v, want 0 (J(∅, ∅) = 0)", res.Similarity(0, 0))
	}
	if !approxEqual(res.Similarity(0, 2), 0) {
		t.Errorf("empty vs non-empty similarity = %v, want 0", res.Similarity(0, 2))
	}
	if !approxEqual(res.Distance(0, 2), 1) {
		t.Errorf("Distance = %v, want 1", res.Distance(0, 2))
	}
}

func TestInvalidOptionsRejected(t *testing.T) {
	ds := MustInMemoryDataset(nil, [][]uint64{{1}}, 10)
	if _, err := run(ds, Options{}); err == nil {
		t.Error("expected error for zero options")
	}
}

func TestGridMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	configs := []struct {
		procs, replication, batches, maskBits int
	}{
		{1, 1, 1, 64},
		{2, 1, 2, 64},
		{4, 1, 3, 64},
		{4, 2, 2, 32},
		{8, 2, 4, 64},
		{6, 1, 1, 64},
		{16, 4, 2, 64},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("p%d_c%d", cfg.procs, cfg.replication), func(t *testing.T) {
			n := 4 + rng.Intn(10)
			m := uint64(200 + rng.Intn(3000))
			ds := randomDataset(rng, n, m, 0.03)
			exact := ExactJaccard(ds)
			opts := DefaultOptions()
			opts.Procs = cfg.procs
			opts.Replication = cfg.replication
			opts.BatchCount = cfg.batches
			opts.MaskBits = cfg.maskBits
			if cfg.procs == 1 {
				opts = oneRankGrid(opts)
			}
			res, err := run(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sparse.Equal(exact, res.S, approxEqual) {
				t.Fatal("distributed S differs from exact")
			}
			if res.Stats.Comm == nil {
				t.Fatal("distributed run must record communication stats")
			}
			if res.Stats.Comm.Procs != cfg.procs {
				t.Errorf("Comm.Procs = %d", res.Stats.Comm.Procs)
			}
			if cfg.procs > 1 && res.Stats.Comm.TotalBytes == 0 {
				t.Error("multi-rank run should move bytes")
			}
			if res.Stats.Batches != cfg.batches {
				t.Errorf("Batches = %d, want %d", res.Stats.Batches, cfg.batches)
			}
			// D = 1 - S everywhere.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if !approxEqual(res.D.At(i, j), 1-res.S.At(i, j)) {
						t.Fatalf("D != 1-S at (%d,%d)", i, j)
					}
				}
			}
		})
	}
}

// TestEmptyDatasetRejected: a dataset without samples is the same error on
// both entry points and both targets.
func TestEmptyDatasetRejected(t *testing.T) {
	ds := MustInMemoryDataset(nil, nil, 10)
	grid := DefaultOptions()
	grid.Procs = 4
	for name, opts := range map[string]Options{"local": DefaultOptions(), "grid": grid, "one-rank grid": oneRankGrid(DefaultOptions())} {
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		_, gatherErr := e.Similarity(context.Background(), ds)
		_, streamErr := e.Stream(context.Background(), ds, tile.NewCollect())
		for entry, err := range map[string]error{"Similarity": gatherErr, "Stream": streamErr} {
			if err == nil || err.Error() != "core: dataset has no samples" {
				t.Errorf("%s %s: err = %v, want the no-samples error", name, entry, err)
			}
		}
	}
}

// TestStreamDiscardAssemblesNothing: streaming into the discarding sink
// runs the pipeline for its statistics without assembling matrices.
func TestStreamDiscardAssemblesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := randomDataset(rng, 6, 300, 0.05)
	opts := DefaultOptions()
	opts.Procs = 4
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Stream(context.Background(), ds, tile.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.S != nil || res.D != nil || res.B != nil {
		t.Error("a streaming run must not assemble the full matrices")
	}
	defer func() {
		if recover() == nil {
			t.Error("Similarity() should panic when not gathered")
		}
	}()
	res.Similarity(0, 1)
}

// Batching invariance: the result must be identical for any batch count
// (Eq. 4 accumulation property), checked end-to-end via the public API.
func TestBatchingInvarianceProperty(t *testing.T) {
	f := func(seed int64, batchesRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 5+rng.Intn(5), uint64(100+rng.Intn(900)), 0.05)
		base := DefaultOptions()
		ref, err := run(ds, base)
		if err != nil {
			return false
		}
		batched := base
		batched.BatchCount = int(batchesRaw%16) + 1
		got, err := run(ds, batched)
		if err != nil {
			return false
		}
		return sparse.Equal(ref.S, got.S, approxEqual)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Mask-width invariance: the result is independent of the bitmask width b.
func TestMaskWidthInvarianceProperty(t *testing.T) {
	f := func(seed int64, widthRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := randomDataset(rng, 4+rng.Intn(5), uint64(100+rng.Intn(500)), 0.08)
		ref, err := run(ds, DefaultOptions())
		if err != nil {
			return false
		}
		opts := DefaultOptions()
		opts.MaskBits = int(widthRaw%64) + 1
		got, err := run(ds, opts)
		if err != nil {
			return false
		}
		return sparse.Equal(ref.S, got.S, approxEqual)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Permutation invariance: permuting samples permutes rows/columns of S.
func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 8
	ds := randomDataset(rng, n, 400, 0.05)
	perm := rng.Perm(n)
	permSamples := make([][]uint64, n)
	for i, p := range perm {
		permSamples[i] = ds.Sample(p)
	}
	permDS := MustInMemoryDataset(nil, permSamples, 400)
	orig, err := run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	permuted, err := run(permDS, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if !approxEqual(permuted.S.At(i, j), orig.S.At(perm[i], perm[j])) {
				t.Fatalf("permutation invariance violated at (%d,%d)", i, j)
			}
		}
	}
}

func TestIntersectionSize(t *testing.T) {
	if intersectionSize([]uint64{1, 3, 5}, []uint64{2, 3, 4, 5, 6}) != 2 {
		t.Error("intersectionSize wrong")
	}
	if intersectionSize(nil, []uint64{1}) != 0 {
		t.Error("empty intersection wrong")
	}
}

func TestRangeSlice(t *testing.T) {
	xs := []uint64{1, 5, 9, 12, 40}
	got := rangeSlice(xs, 5, 13)
	if len(got) != 3 || got[0] != 5 || got[2] != 12 {
		t.Errorf("rangeSlice = %v", got)
	}
	if len(rangeSlice(xs, 100, 200)) != 0 {
		t.Error("out-of-range slice should be empty")
	}
	if len(rangeSlice(xs, 0, 100)) != 5 {
		t.Error("full-range slice should return everything")
	}
}
