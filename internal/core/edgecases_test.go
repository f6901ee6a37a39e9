package core

import (
	"math/rand"
	"testing"

	"genomeatscale/internal/sparse"
)

// When the number of virtual ranks exceeds the number of samples, some grid
// blocks are empty; the paper observes load imbalance in this regime
// (Section V-B) but the results must stay correct.
func TestComputeMoreRanksThanSamples(t *testing.T) {
	ds := MustInMemoryDataset(
		[]string{"a", "b", "c"},
		[][]uint64{{1, 2, 3}, {2, 3, 4}, {10, 11}},
		64,
	)
	exact := ExactJaccard(ds)
	for _, procs := range []int{4, 8, 12} {
		opts := DefaultOptions()
		opts.Procs = procs
		opts.BatchCount = 2
		res, err := run(ds, opts)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if !sparse.Equal(exact, res.S, approxEqual) {
			t.Fatalf("procs=%d: result differs from exact", procs)
		}
	}
}

func TestComputeSingleSample(t *testing.T) {
	ds := MustInMemoryDataset([]string{"only"}, [][]uint64{{5, 7, 9}}, 20)
	grid := DefaultOptions()
	grid.Procs = 3
	for name, opts := range map[string]Options{"local": DefaultOptions(), "one-rank grid": oneRankGrid(DefaultOptions()), "grid": grid} {
		res, err := run(ds, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.N != 1 || !approxEqual(res.Similarity(0, 0), 1) {
			t.Fatalf("%s: self-similarity must be 1", name)
		}
		if res.Cardinalities[0] != 3 {
			t.Fatalf("%s: cardinality = %d", name, res.Cardinalities[0])
		}
	}
}

func TestComputeAllSamplesIdentical(t *testing.T) {
	vals := []uint64{3, 17, 99, 100}
	ds := MustInMemoryDataset(nil, [][]uint64{vals, vals, vals, vals}, 200)
	opts := DefaultOptions()
	opts.Procs = 4
	opts.BatchCount = 3
	res, err := run(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !approxEqual(res.Similarity(i, j), 1) {
				t.Fatalf("S[%d][%d] = %v, want 1", i, j, res.Similarity(i, j))
			}
		}
	}
}

func TestComputeBatchCountExceedsAttributes(t *testing.T) {
	// More batches than attribute values: later batches are empty ranges and
	// must be handled gracefully on both paths.
	ds := MustInMemoryDataset(nil, [][]uint64{{0, 1}, {1, 2}}, 3)
	exact := ExactJaccard(ds)
	seqOpts := DefaultOptions()
	seqOpts.BatchCount = 10
	seq, err := run(ds, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(exact, seq.S, approxEqual) {
		t.Fatal("sequential result differs from exact with excess batches")
	}
	distOpts := DefaultOptions()
	distOpts.BatchCount = 10
	distOpts.Procs = 3
	dist, err := run(ds, distOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(exact, dist.S, approxEqual) {
		t.Fatal("distributed result differs from exact with excess batches")
	}
}

func TestComputeMaskBitsOne(t *testing.T) {
	// b = 1 disables the packing benefit entirely (one row per word) but the
	// algorithm must still be correct on both targets.
	rng := rand.New(rand.NewSource(55))
	ds := randomDataset(rng, 6, 300, 0.05)
	exact := ExactJaccard(ds)
	for _, procs := range []int{1, 4} {
		opts := DefaultOptions()
		opts.MaskBits = 1
		opts.Procs = procs
		res, err := run(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.Equal(exact, res.S, approxEqual) {
			t.Fatalf("procs=%d: b=1 result differs from exact", procs)
		}
	}
}

func TestComputeRejectsHugeUniverse(t *testing.T) {
	ds := MustInMemoryDataset(nil, [][]uint64{{1}, {2}}, uint64(1)<<63)
	grid := DefaultOptions()
	grid.Procs = 4
	for name, opts := range map[string]Options{"local": DefaultOptions(), "one-rank grid": oneRankGrid(DefaultOptions()), "grid": grid} {
		if _, err := run(ds, opts); err == nil {
			t.Errorf("%s: universe beyond 2^62 should be rejected", name)
		}
	}
}

func TestDistributedReplicationExceedingRanks(t *testing.T) {
	// Replication factors larger than the rank count are clamped by the grid
	// chooser; the run must still be correct.
	rng := rand.New(rand.NewSource(77))
	ds := randomDataset(rng, 7, 500, 0.04)
	exact := ExactJaccard(ds)
	opts := DefaultOptions()
	opts.Procs = 4
	opts.Replication = 64
	res, err := run(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.Equal(exact, res.S, approxEqual) {
		t.Fatal("result differs from exact with clamped replication")
	}
}
