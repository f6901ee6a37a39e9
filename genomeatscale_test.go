package genomeatscale

import (
	"context"
	"math"
	"testing"
)

// gather builds an engine from options and returns its gathered result.
func gather(t *testing.T, ds Dataset, options ...Option) *Result {
	t.Helper()
	e, err := NewEngine(options...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Similarity(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeSequentialAndDistributedAgree(t *testing.T) {
	ds, err := NewDataset(
		[]string{"x", "y", "z"},
		[][]uint64{{1, 2, 3, 4}, {3, 4, 5, 6}, {100, 101}},
		200,
	)
	if err != nil {
		t.Fatal(err)
	}
	seq := gather(t, ds)
	dist := gather(t, ds, WithProcs(4), WithBatches(2))
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(seq.Similarity(i, j)-dist.Similarity(i, j)) > 1e-12 {
				t.Fatalf("paths disagree at (%d,%d)", i, j)
			}
		}
	}
	if math.Abs(seq.Similarity(0, 1)-1.0/3.0) > 1e-12 {
		t.Errorf("S(x,y) = %v, want 1/3", seq.Similarity(0, 1))
	}
	if dist.Stats.Comm == nil {
		t.Error("distributed run should expose communication stats")
	}
}

func TestFacadeExactHelpers(t *testing.T) {
	x := []uint64{1, 2, 3}
	y := []uint64{2, 3, 4}
	if ExactJaccard(x, y) != 0.5 {
		t.Error("ExactJaccard wrong")
	}
	if JaccardDistance(x, y) != 0.5 {
		t.Error("JaccardDistance wrong")
	}
}

func TestFacadeDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil, [][]uint64{{10}}, 5); err == nil {
		t.Error("out-of-range attribute should error")
	}
}
