package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// TestAutotuneMatchesManual: a zero-flags autotuned run must produce B, S
// and D byte-identical to the defaults (the configuration only moves
// storage/kernel/batching decisions, never results) and must record a
// tuning report with the sampled statistics and the chosen plan.
func TestAutotuneMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := randomDataset(rng, 23, 700, 0.05)

	manual, err := run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Autotune = true
	auto, err := run(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	intEq := func(a, b int64) bool { return a == b }
	fEq := func(a, b float64) bool { return a == b }
	if !sparse.Equal(manual.B, auto.B, intEq) || !sparse.Equal(manual.S, auto.S, fEq) || !sparse.Equal(manual.D, auto.D, fEq) {
		t.Fatal("autotuned results differ from manual defaults")
	}

	rep := auto.Stats.Tuning
	if rep == nil {
		t.Fatal("no tuning report recorded")
	}
	if rep.Plan.Procs != 1 {
		t.Fatalf("single-host autotune chose Procs=%d, want 1", rep.Plan.Procs)
	}
	if rep.Stats.Samples != 23 || rep.Stats.Attributes != 700 {
		t.Fatalf("sampled stats wrong: %+v", rep.Stats)
	}
	if rep.SampledColumns != 23 {
		t.Fatalf("probed %d columns, want all 23", rep.SampledColumns)
	}
	if rep.Stats.Density <= 0 {
		t.Fatalf("no density estimate: %+v", rep.Stats)
	}
	if rep.Machine == "" || len(rep.Pinned) != 0 {
		t.Fatalf("unexpected report fields: machine=%q pinned=%v", rep.Machine, rep.Pinned)
	}
	if rep.MeasuredOccupancy <= 0 || rep.MeasuredOccupancy > 1 {
		t.Fatalf("measured occupancy out of range: %g", rep.MeasuredOccupancy)
	}
	if rep.Plan.PredictedOccupancy <= 0 {
		t.Fatalf("no occupancy prediction: %+v", rep.Plan)
	}
	// Manual run must not carry a report.
	if manual.Stats.Tuning != nil {
		t.Fatal("non-autotuned run recorded a tuning report")
	}
}

// TestAutotunePinnedProcs: an explicitly set Procs survives autotuning, is
// listed in the report, and the distributed autotuned run still matches
// the sequential baseline.
func TestAutotunePinnedProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ds := randomDataset(rng, 17, 500, 0.06)

	base, err := run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Autotune = true
	opts.Procs = 4
	opts.SetExplicit(FieldProcs)
	res, err := run(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Stats.Tuning
	if rep == nil || rep.Plan.Procs != 4 {
		t.Fatalf("pinned Procs not honoured: %+v", rep)
	}
	found := false
	for _, p := range rep.Pinned {
		if p == "procs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("pinned dimensions not reported: %v", rep.Pinned)
	}
	if !sparse.Equal(base.S, res.S, approxEqual) {
		t.Fatal("autotuned distributed run differs from sequential baseline")
	}
}

// TestAutotuneStreamMatches: streaming with autotune reproduces the
// gathered matrices byte for byte even when the tuner picks its own
// TileRows.
func TestAutotuneStreamMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ds := randomDataset(rng, 19, 400, 0.08)

	e, err := NewEngine(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Similarity(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.Autotune = true
	ae, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	collect := tile.NewCollect()
	got, err := ae.Stream(context.Background(), ds, collect)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Tuning == nil {
		t.Fatal("streaming autotuned run recorded no tuning report")
	}
	fEq := func(a, b float64) bool { return a == b }
	if !sparse.Equal(want.S, collect.S(), fEq) {
		t.Fatal("autotuned streamed S differs from gathered S")
	}
}

// TestAutotuneEngineReuse: one autotuned engine run twice (and its arena
// pool exercised) must produce identical results both times.
func TestAutotuneEngineReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	ds := randomDataset(rng, 13, 300, 0.1)
	opts := DefaultOptions()
	opts.Autotune = true
	opts.BatchCount = 3
	opts.SetExplicit(FieldBatchCount)
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Similarity(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Similarity(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	intEq := func(a, b int64) bool { return a == b }
	if !sparse.Equal(first.B, second.B, intEq) {
		t.Fatal("engine reuse changed the result")
	}
	if first.Stats.Tuning.Plan.Batches != 3 || second.Stats.Tuning.Plan.Batches != 3 {
		t.Fatal("pinned batch count not honoured across runs")
	}
}

// TestSampleDatasetStats: the probe must recover the dimensions and a
// density estimate close to the truth for a uniform dataset, and cap the
// probed columns.
func TestSampleDatasetStats(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	ds := randomDataset(rng, 100, 2000, 0.05)
	st, probed, err := sampleDatasetStats(ds)
	if err != nil {
		t.Fatal(err)
	}
	if probed != maxProbeColumns {
		t.Fatalf("probed %d columns, want cap %d", probed, maxProbeColumns)
	}
	if st.Samples != 100 || st.Attributes != 2000 {
		t.Fatalf("dimensions wrong: %+v", st)
	}
	truth := Density(ds)
	if math.Abs(st.Density-truth) > truth/2 {
		t.Fatalf("density estimate %g too far from truth %g", st.Density, truth)
	}
}

// TestAutotuneProbeErrorPropagates: a failing sample load during the
// density probe must abort the run with a descriptive error, not panic.
func TestAutotuneProbeErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	base := randomDataset(rng, 8, 200, 0.1)
	ds := &errOnSampleDataset{InMemoryDataset: base, bad: 0}
	opts := DefaultOptions()
	opts.Autotune = true
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Similarity(context.Background(), ds)
	if err == nil || !strings.Contains(err.Error(), "autotune probe") {
		t.Fatalf("expected probe error, got %v", err)
	}
}

// TestExplicitTracking pins the bitset semantics of SetExplicit/IsExplicit.
func TestExplicitTracking(t *testing.T) {
	var o Options
	if o.IsExplicit(FieldProcs) {
		t.Fatal("zero options claim explicit fields")
	}
	o.SetExplicit(FieldProcs | FieldMaskBits)
	if !o.IsExplicit(FieldProcs) || !o.IsExplicit(FieldMaskBits) || !o.IsExplicit(FieldProcs|FieldMaskBits) {
		t.Fatal("set fields not reported explicit")
	}
	if o.IsExplicit(FieldBatchCount) || o.IsExplicit(FieldProcs|FieldBatchCount) {
		t.Fatal("unset field reported explicit")
	}
	// Copies carry the marks (value semantics).
	cp := o
	if !cp.IsExplicit(FieldProcs) {
		t.Fatal("explicit marks lost on copy")
	}
}
