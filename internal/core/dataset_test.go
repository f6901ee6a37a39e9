package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"genomeatscale/internal/tile"
)

// errOnSampleDataset fails the whole-sample reads (SampleErr) of one
// sample; its batch range reads succeed.
type errOnSampleDataset struct {
	*InMemoryDataset
	bad int
}

func (d *errOnSampleDataset) SampleErr(i int) ([]uint64, error) {
	if i == d.bad {
		return nil, errors.New("disk on fire")
	}
	return d.InMemoryDataset.SampleErr(i)
}

// errOnRangeDataset fails the batch range reads (SampleRange) of one
// sample; its whole-sample reads succeed.
type errOnRangeDataset struct {
	*InMemoryDataset
	bad int
}

func (d *errOnRangeDataset) SampleRange(i int, lo, hi uint64) ([]uint64, error) {
	if i == d.bad {
		return nil, errors.New("disk on fire")
	}
	return d.InMemoryDataset.SampleRange(i, lo, hi)
}

// TestDatasetErrorPropagates: a failing batch range read aborts local and
// grid runs, Similarity and Stream alike, and a failing whole-sample read
// aborts a prescreened run; each error carries the dataset's error and
// names the sample.
func TestDatasetErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	base := randomDataset(rng, 12, 400, 0.06)
	check := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: want the dataset's error, got none", what)
		}
		for _, want := range []string{"disk on fire", "sample 5", base.SampleName(5)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error should contain %q, got: %v", what, want, err)
			}
		}
	}
	for _, procs := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Procs = procs
		opts.BatchCount = 2
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		ds := &errOnRangeDataset{InMemoryDataset: base, bad: 5}
		res, err := e.Similarity(nil, ds)
		check(fmt.Sprintf("procs=%d Similarity", procs), err)
		if res != nil {
			t.Errorf("procs=%d: failed run must not return a result", procs)
		}
		_, err = e.Stream(nil, ds, tile.Discard)
		check(fmt.Sprintf("procs=%d Stream", procs), err)
	}

	opts := DefaultOptions()
	opts.BatchCount = 2
	opts.Sketch = SketchOptions{Threshold: 0.5}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Similarity(nil, &errOnSampleDataset{InMemoryDataset: base, bad: 5})
	check("prescreen", err)
	if err != nil && !strings.Contains(err.Error(), "sketch prescreen") {
		t.Errorf("prescreen: error should come from the prescreen, got: %v", err)
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
