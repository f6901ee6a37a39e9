package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/costmodel"
	"genomeatscale/internal/minhash"
	"genomeatscale/internal/par"
)

// This file is the MinHash prescreening tier (Options.Sketch): before the
// exact pipeline runs, cheap bottom-k sketches of every sample estimate
// all pairwise Jaccard similarities, and only pairs whose estimate
// reaches Threshold − Slack are handed to the exact tiled Gram kernel.
// The tier reuses the batch stage's scanning discipline — the sketch pass
// walks the same batch ranges in the same ascending column order the
// exact tier will, with the same prefetch hints, and minhash.Builder
// folds each sample's in-range values incrementally (bottom-k sketches of
// disjoint ranges merge exactly), so out-of-core corpora sketch without
// materialising whole samples. Pruned pairs are skipped at the tile level
// inside the Gram kernel (bitmat.PairMask) and reported as B = 0, S = 0,
// D = 1; surviving pairs are byte-identical to a non-prescreened run
// because the same kernel computes the same intersection counts and the
// same Eq. 2 scalar derives them against the exact cardinalities, which
// are still accumulated for every sample.

// sketchConfig is the resolved prescreen configuration of one run.
type sketchConfig struct {
	enabled   bool
	size      int
	threshold float64
	slack     float64
}

// resolveSketch resolves Options.Sketch into concrete gate parameters:
// the default slack is filled in and an unset size is derived from the
// threshold/slack pair (costmodel.SketchSizeFor — the same formula the
// autotuner uses, so autotuned and static runs agree unless the tuner was
// given an explicitly pinned size).
func resolveSketch(o Options) sketchConfig {
	if !o.Sketch.Enabled() {
		return sketchConfig{}
	}
	sc := sketchConfig{
		enabled:   true,
		size:      o.Sketch.Size,
		threshold: o.Sketch.Threshold,
		slack:     o.Sketch.Slack,
	}
	if sc.slack == 0 {
		sc.slack = DefaultSketchSlack
	}
	if sc.size <= 0 {
		sc.size = costmodel.SketchSizeFor(sc.threshold, sc.slack)
	}
	return sc
}

// sketchRecall is the modelled worst-case recall of the gate: the normal
// approximation of the bottom-k estimator at the decision boundary gives
// a pair with exact similarity τ the survival probability
// Φ(s·√(k/(τ(1−τ)))).
func sketchRecall(sc sketchConfig) float64 {
	variance := sc.threshold * (1 - sc.threshold)
	if variance <= 0 {
		return 1
	}
	z := sc.slack * math.Sqrt(float64(sc.size)/variance)
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

// prescreen runs the sketch tier: it builds the per-sample sketches batch
// range by batch range, evaluates the pairwise estimate gate on the
// shared worker pool, and returns the survivor mask together with the
// tier's statistics. Sample load failures propagate as run errors.
func prescreen(ctx context.Context, ds Dataset, n int, m uint64, cfg runConfig) (*bitmat.PairMask, *SketchStats, error) {
	sc := cfg.sketch
	opts := cfg.opts
	start := time.Now()

	builders := make([]*minhash.Builder, n)
	for j := range builders {
		b, err := minhash.NewBuilder(sc.size)
		if err != nil {
			return nil, nil, fmt.Errorf("core: sketch prescreen: %w", err)
		}
		builders[j] = b
	}

	// Sketch pass: the same batch ranges, column order and prefetch hints
	// as the exact tier's scans, so memory-bounded loaders see one more
	// identical scan rather than a second ad-hoc access pattern. Builder j
	// is only touched by iteration j, so the per-batch column loop can run
	// on the worker pool.
	errs := make([]error, n)
	for l := 0; l < opts.BatchCount; l++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		lo, hi := batchBounds(m, opts.BatchCount, l)
		if lo >= hi {
			continue
		}
		err := par.ForEachCtx(ctx, cfg.workers, n, func(j int) {
			sample, err := ds.SampleErr(j)
			if err != nil {
				errs[j] = fmt.Errorf("core: sketch prescreen: loading sample %d (%s): %w", j, ds.SampleName(j), err)
				return
			}
			builders[j].Add(rangeSlice(sample, lo, hi))
		})
		if err != nil {
			return nil, nil, err
		}
		for _, e := range errs {
			if e != nil {
				return nil, nil, e
			}
		}
		if l+1 < opts.BatchCount {
			prefetchNextScan(ds, n)
		}
	}

	sketches := make([]minhash.Sketch, n)
	for j, b := range builders {
		sketches[j] = b.Sketch()
	}

	// Estimate gate: row i fills only its own mask row (SetHalf), so the
	// triangle parallelises race-free; one mirror pass completes the
	// symmetric mask. The diagonal goes through the estimator like any
	// pair — a non-empty sample estimates 1 against itself and survives,
	// an empty one estimates 0 and is pruned, matching the exact kernel's
	// J(∅, ∅) = 0 convention.
	mask := bitmat.NewPairMask(n)
	gate := sc.threshold - sc.slack
	err := par.ForEachCtx(ctx, cfg.workers, n, func(i int) {
		for j := i; j < n; j++ {
			// EstimateAtLeast decides EstimateJaccard ≥ gate with an
			// early-exit scan — identical decisions, but dissimilar pairs
			// (the bulk of a thresholded corpus) resolve after a short
			// prefix of the sketches.
			pass, err := minhash.EstimateAtLeast(sketches[i], sketches[j], gate)
			if err != nil {
				errs[i] = fmt.Errorf("core: sketch prescreen: %w", err)
				return
			}
			if pass {
				mask.SetHalf(i, j)
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, nil, e
		}
	}
	mask.MirrorUpper()

	stats := &SketchStats{
		Size:            sc.size,
		Threshold:       sc.threshold,
		Slack:           sc.slack,
		PairsScreened:   int64(n) * int64(n+1) / 2,
		PairsSurvived:   mask.CountUpper(),
		EstimatedRecall: sketchRecall(sc),
		SketchSeconds:   time.Since(start).Seconds(),
	}
	return mask, stats, nil
}

// maskBatchColumns restricts one batch's columns to the prescreen
// candidates — samples with at least one surviving partner besides
// themselves — so the packed batch and its shared-row filter (Eq. 5), which
// is marked from the kept columns, only carry rows two candidates share.
// It runs after the cardinality accumulation, which always sees every
// column: â stays exact for pruned samples too.
//
// The diagonal does not keep a column alive: the local target sets every
// surviving B_jj from â (localTarget.finish), not from the Gram kernel. On thresholded corpora where most samples have no
// near-duplicate this is where the prescreening tier's packing/compaction
// savings come from.
func maskBatchColumns(columns []batchColumn, mask *bitmat.PairMask) []batchColumn {
	kept := columns[:0]
	for _, c := range columns {
		if mask.AnyPartnerOffDiag(c.col) {
			kept = append(kept, c)
		}
	}
	return kept
}
