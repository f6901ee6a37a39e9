package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"genomeatscale/internal/tile"
)

// panicOnSampleDataset is a legacy Dataset whose Sample panics for one
// index — the only failure channel the pre-V2 interface had.
type panicOnSampleDataset struct {
	*InMemoryDataset
	bad int
}

func (d *panicOnSampleDataset) Sample(i int) []uint64 {
	if i == d.bad {
		panic(fmt.Sprintf("simulated I/O failure on sample %d", i))
	}
	return d.InMemoryDataset.Sample(i)
}

// errOnSampleDataset implements DatasetV2 directly with a failing sample.
type errOnSampleDataset struct {
	*InMemoryDataset
	bad int
}

func (d *errOnSampleDataset) SampleErr(i int) ([]uint64, error) {
	if i == d.bad {
		return nil, errors.New("disk on fire")
	}
	return d.InMemoryDataset.Sample(i), nil
}

func (d *errOnSampleDataset) LoadRange(lo, hi int) error { return nil }

// TestLegacyPanicBecomesError: the AsV2 adapter converts a panicking
// legacy Sample into a run error on both execution paths, for Similarity
// and Stream alike.
func TestLegacyPanicBecomesError(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := randomDataset(rng, 16, 500, 0.05)
	for _, procs := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Procs = procs
		opts.BatchCount = 2
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		ds := &panicOnSampleDataset{InMemoryDataset: base, bad: 9}
		res, err := e.Similarity(nil, ds)
		if err == nil || res != nil {
			t.Fatalf("procs=%d: want error from panicking dataset, got res=%v err=%v", procs, res, err)
		}
		if !strings.Contains(err.Error(), "sample 9") {
			t.Errorf("procs=%d: error should identify the sample, got: %v", procs, err)
		}
		if _, err := e.Stream(nil, ds, tile.Discard); err == nil {
			t.Errorf("procs=%d: Stream must surface the same failure", procs)
		}
	}
}

// TestDatasetV2ErrorPropagates: a native DatasetV2 error aborts the run
// with the sample identified, on both paths.
func TestDatasetV2ErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	base := randomDataset(rng, 12, 400, 0.06)
	for _, procs := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Procs = procs
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		ds := &errOnSampleDataset{InMemoryDataset: base, bad: 5}
		_, err = e.Similarity(nil, ds)
		if err == nil || !strings.Contains(err.Error(), "disk on fire") {
			t.Fatalf("procs=%d: want the dataset's error, got: %v", procs, err)
		}
	}
}

// TestAsV2Passthrough: a dataset already implementing DatasetV2 must not
// be re-wrapped, and a legacy dataset must get the adapter.
func TestAsV2Passthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	base := randomDataset(rng, 4, 100, 0.1)
	v2 := &errOnSampleDataset{InMemoryDataset: base, bad: -1}
	if AsV2(v2) != DatasetV2(v2) {
		t.Error("AsV2 must return a DatasetV2 unchanged")
	}
	adapted := AsV2(base)
	if _, ok := adapted.(legacyV2); !ok {
		t.Errorf("AsV2 of a legacy dataset should wrap, got %T", adapted)
	}
	vals, err := adapted.SampleErr(0)
	if err != nil || len(vals) != len(base.Sample(0)) {
		t.Errorf("adapter SampleErr = %v, %v", vals, err)
	}
	if err := adapted.LoadRange(0, 4); err != nil {
		t.Errorf("adapter LoadRange = %v", err)
	}
	if _, err := adapted.SampleErr(99); err == nil {
		t.Error("adapter must convert the out-of-range panic into an error")
	}
}

// TestCardinalitiesAccumulatedPerBatch: the per-batch cardinality
// accumulation (which replaced the eager load-everything pass) must equal
// the full sample sizes for every batch count.
func TestCardinalitiesAccumulatedPerBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ds := randomDataset(rng, 10, 333, 0.08)
	for _, batches := range []int{1, 2, 7, 333, 400} {
		opts := DefaultOptions()
		opts.BatchCount = batches
		res, err := run(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		var nnz int64
		for i := 0; i < ds.NumSamples(); i++ {
			want := int64(len(ds.Sample(i)))
			nnz += want
			if res.Cardinalities[i] != want {
				t.Fatalf("batches=%d: cardinality[%d] = %d, want %d", batches, i, res.Cardinalities[i], want)
			}
		}
		if res.Stats.IndicatorNonzeros != nnz {
			t.Errorf("batches=%d: IndicatorNonzeros = %d, want %d", batches, res.Stats.IndicatorNonzeros, nnz)
		}
	}
}
