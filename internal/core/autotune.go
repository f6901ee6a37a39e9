package core

import (
	"fmt"
	"runtime"

	"genomeatscale/internal/costmodel"
)

// This file is the run-time half of Options.Autotune: Similarity and
// Stream resolve their configuration against the dataset at hand by
// sampling coarse statistics, handing them with the engine's host profile
// to costmodel.Tune, and overlaying the chosen values on the options —
// except for the dimensions the caller pinned explicitly, which the tuner
// works around. The decisions and their predictions land in
// RunStats.Tuning.

// maxProbeColumns bounds the density-sampling cost of one autotuned run:
// at most this many sample columns are loaded (evenly strided across the
// dataset) to estimate the indicator density. Out-of-core datasets cache
// the loads, so the probe also warms the first batch's scan.
const maxProbeColumns = 32

// sampleDatasetStats probes the dataset for the statistics the tuner needs:
// dimensions plus a density estimate from up to maxProbeColumns strided
// sample cardinalities. It returns the stats and how many columns were
// probed.
func sampleDatasetStats(ds Dataset) (costmodel.DatasetStats, int, error) {
	n := ds.NumSamples()
	m := ds.NumAttributes()
	st := costmodel.DatasetStats{Samples: n, Attributes: int(m)}
	if n == 0 || m == 0 {
		return st, 0, nil
	}
	probe := n
	if probe > maxProbeColumns {
		probe = maxProbeColumns
	}
	var total float64
	for k := 0; k < probe; k++ {
		j := k * n / probe
		vals, err := ds.SampleErr(j)
		if err != nil {
			return st, 0, fmt.Errorf("core: autotune probe of sample %d (%s): %w", j, ds.SampleName(j), err)
		}
		total += float64(len(vals))
	}
	st.Density = total / float64(probe) / float64(m)
	return st, probe, nil
}

// fixedFrom maps the explicitly set options to the tuner's pinned
// dimensions, returning also their names for the tuning report.
func fixedFrom(o Options) (costmodel.Fixed, []string) {
	var f costmodel.Fixed
	var pinned []string
	if o.IsExplicit(FieldProcs) {
		f.Procs = o.Procs
		pinned = append(pinned, "procs")
	}
	if o.IsExplicit(FieldReplication) {
		f.Replication = o.Replication
		pinned = append(pinned, "replication")
	}
	if o.IsExplicit(FieldBatchCount) {
		f.Batches = o.BatchCount
		pinned = append(pinned, "batches")
	}
	if o.IsExplicit(FieldTileRows) {
		f.TileRows = o.TileRows
		pinned = append(pinned, "tilerows")
	}
	if o.IsExplicit(FieldDenseThreshold) {
		f.HasDenseThreshold = true
		f.DenseThreshold = o.DenseThreshold
		pinned = append(pinned, "densethreshold")
	}
	if o.Sketch.Enabled() {
		f.Sketch = true
		f.SketchThreshold = o.Sketch.Threshold
		f.SketchSlack = o.Sketch.Slack
		if f.SketchSlack == 0 {
			f.SketchSlack = DefaultSketchSlack
		}
		if o.IsExplicit(FieldSketchSize) && o.Sketch.Size > 0 {
			f.SketchSize = o.Sketch.Size
			pinned = append(pinned, "sketchsize")
		}
		// Prescreening is single-process only (Validate enforces Procs == 1
		// on static runs); keep the tuner from planning a rank grid.
		if f.Procs == 0 {
			f.Procs = 1
		}
	}
	f.MaskBits = o.MaskBits
	return f, pinned
}

// configFor resolves the configuration of one run. Without Autotune it is
// the static configuration from NewEngine; with it, the tuner's plan is
// overlaid on the engine options (pinned dimensions unchanged — Tune
// already kept them) and the per-run decisions re-derived.
func (e *Engine) configFor(ds Dataset) (runConfig, error) {
	if !e.opts.Autotune {
		return e.static, nil
	}
	st, probed, err := sampleDatasetStats(ds)
	if err != nil {
		return runConfig{}, err
	}
	fixed, pinned := fixedFrom(e.opts)
	// GOMAXPROCS, not NumCPU: in cgroup-limited containers NumCPU reports
	// the physical host and the tuner would over-provision parallelism.
	plan := costmodel.Tune(e.mach, st, runtime.GOMAXPROCS(0), fixed)
	opts := e.opts
	opts.Procs = plan.Procs
	opts.Replication = plan.Replication
	opts.BatchCount = plan.Batches
	opts.TileRows = plan.TileRows
	opts.DenseThreshold = plan.DenseThreshold
	if plan.SketchSize > 0 {
		opts.Sketch.Size = plan.SketchSize
	}
	if err := opts.Validate(); err != nil {
		return runConfig{}, fmt.Errorf("core: autotuned configuration invalid: %w", err)
	}
	cfg := resolveConfig(opts)
	cfg.tuning = &TuningReport{
		Machine:        e.mach.Name,
		SampledColumns: probed,
		Stats:          st,
		Plan:           plan,
		Pinned:         pinned,
	}
	return cfg, nil
}
