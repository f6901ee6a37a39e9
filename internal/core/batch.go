package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bitutil"
	"genomeatscale/internal/par"
)

// This file is the exact tier's batch loop — Listing 1 of the paper, written
// once. Per batch A(l) every process of a run executes
//
//	sliceBatch    — range-slice each of its samples' attributes (Eq. 3)
//	              — accumulate the per-sample cardinalities â (Eq. 4)
//	target.filter — sorted distinct nonzero rows f(l) of the batch (Eq. 5)
//	packBatch     — compact rows against f(l) with a two-pointer merge
//	                (Eq. 6) and pack them into MaskBits-wide words (Â(l),
//	                Section III-B)
//	target.gram   — accumulate Â(l)ᵀÂ(l) (Eq. 7)
//
// and after the last batch target.finish derives S and D (Eq. 2) and emits
// the result as tiles. The processor grid changes only who completes the
// filter vector and where the Gram accumulates, so those steps — and
// nothing else — sit behind the target seam (target.go): the local target
// is one process that sees every sample, the grid target one BSP rank with
// its cyclically owned samples. Context polling, statistics, entry-buffer
// reuse, the prefetch hint and sink accounting live here, once.

// batchRun is the state one run's processes share: the only process of a
// local run, or every rank goroutine of an in-process grid run.
type batchRun struct {
	ctx  context.Context
	ds   DatasetV2
	cfg  runConfig
	res  *Result     // written by the lead process only
	sink *sinkRunner // driven by the lead process only
}

// target is the seam of the batch loop: the two steps of Listing 1 whose
// implementation depends on the processor grid, plus the final derivation
// that reads the accumulated Gram.
type target interface {
	// filter completes the batch's filter vector from the rows this process
	// observed in columns and returns the columns to pack with the sorted
	// distinct nonzero rows of the whole batch [lo, hi).
	filter(columns []batchColumn, rows []int64, lo, hi uint64) ([]batchColumn, []int64)
	// gram folds one packed batch of `active` compacted rows into the
	// accumulated Gram.
	gram(ctx context.Context, entries []bitmat.PackedEntry, active int) error
	// finish combines this process's cardinality counts into the global â,
	// derives S and D from the accumulated B and hands the result tiles to
	// emit in (RowLo, ColLo) order. It returns â.
	finish(ctx context.Context, counts []int64, emit func(*Tile) error) ([]int64, error)
}

// loop runs the batch loop for one process: cols are the samples it reads
// (ascending), tg its target. Exactly one process of a run is the lead —
// it records the run statistics, hints the dataset prefetch and drives the
// sink.
func (r *batchRun) loop(cols []int, lead bool, tg target) error {
	ctx, opts, res := r.ctx, r.cfg.opts, r.res
	n, m := res.N, r.ds.NumAttributes()
	counts := make([]int64, n)
	// The coordinate-entry scratch is reused across batches: both targets
	// consume a batch's entries before the next batch packs.
	var entries []bitmat.PackedEntry

	for l := 0; l < opts.BatchCount; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		batchStart := time.Now()
		lo, hi := batchBounds(m, opts.BatchCount, l)

		// A load failure aborts the run; on the grid the BSP runtime wakes
		// the peers parked at barriers and surfaces this rank's error.
		columns, rows, err := sliceBatch(r.ds, cols, lo, hi)
		if err != nil {
			return fmt.Errorf("batch %d: %w", l, err)
		}
		// The batch ranges partition [0, m), so summing each sample's
		// in-range value counts over all batches yields the exact
		// cardinalities (â, Eq. 4) without an up-front pass that would load
		// every sample before the first batch — out-of-core datasets stay
		// memory-bounded. Each sample is read by exactly one process.
		for _, c := range columns {
			counts[c.col] += int64(len(c.vals))
		}
		columns, nonzero := tg.filter(columns, rows, lo, hi)
		active := len(nonzero)
		if entries, err = packBatch(ctx, columns, nonzero, lo, opts.MaskBits, r.cfg.workers, entries); err != nil {
			return err
		}
		if lead && l+1 < opts.BatchCount {
			// One process hints the restart of the scan; single-flight
			// loading in the dataset dedups it against the peers' reads.
			prefetchNextScan(r.ds, n)
		}
		if err := tg.gram(ctx, entries, active); err != nil {
			return err
		}
		if lead {
			res.Stats.Batches++
			res.Stats.BatchSeconds = append(res.Stats.BatchSeconds, time.Since(batchStart).Seconds())
			res.Stats.ActiveRowsPerBatch = append(res.Stats.ActiveRowsPerBatch, int64(active))
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	if lead {
		if err := r.sink.start(n, res.Names); err != nil {
			return err
		}
	}
	counts, err := tg.finish(ctx, counts, r.sink.emit)
	if err != nil || !lead {
		return err
	}
	res.Cardinalities = counts
	for _, c := range counts {
		res.Stats.IndicatorNonzeros += c
	}
	return r.sink.flush()
}

// validateDataset is the input guard of every run: a non-empty sample set
// and the attribute-universe bound (row indices must fit the int64
// arithmetic of the filter and prefix-sum machinery). Option consistency
// is checked once, in NewEngine.
func validateDataset(ds Dataset) error {
	if ds.NumSamples() == 0 {
		return fmt.Errorf("core: dataset has no samples")
	}
	if m := ds.NumAttributes(); m > uint64(1)<<62 {
		return fmt.Errorf("core: attribute universe %d exceeds 2^62; remap attributes to a smaller universe", m)
	}
	return nil
}

// batchColumn is one sample's share of a batch: the attribute values of
// column `col` that fall inside the batch range.
type batchColumn struct {
	col  int
	vals []uint64
}

// sliceBatch extracts the batch range [lo, hi) of the listed samples. It
// returns the non-empty columns and the flattened batch-rebased row list
// (the rows this process would write into the filter vector). Samples are
// accessed through the error-returning DatasetV2 path in ascending column
// order — the access pattern out-of-core datasets prefetch against — and a
// load failure aborts the batch with a descriptive error instead of
// panicking mid-run.
//
// For an EvictingDataset the in-range values are copied out: the columns
// live until the batch's pack stage completes, and a zero-copy subslice
// would pin each sample's whole backing array for that long — the resident
// bound would then hold only in the loader's accounting, not in bytes.
// Non-evicting datasets keep the historical zero-copy subslices.
func sliceBatch(ds DatasetV2, cols []int, lo, hi uint64) ([]batchColumn, []int64, error) {
	if lo >= hi {
		return nil, nil, nil
	}
	copyVals := false
	if ev, ok := ds.(EvictingDataset); ok {
		copyVals = ev.EvictsSamples()
	}
	var columns []batchColumn
	var rows []int64
	for _, j := range cols {
		sample, err := ds.SampleErr(j)
		if err != nil {
			return nil, nil, fmt.Errorf("core: loading sample %d (%s): %w", j, ds.SampleName(j), err)
		}
		vals := rangeSlice(sample, lo, hi)
		if len(vals) == 0 {
			continue
		}
		if copyVals {
			vals = slices.Clone(vals)
		}
		columns = append(columns, batchColumn{col: j, vals: vals})
		for _, v := range vals {
			rows = append(rows, int64(v-lo))
		}
	}
	return columns, rows, nil
}

// packBatch compacts each column's batch rows against the sorted nonzero
// row list (Eq. 6) and packs them into MaskBits-wide words, emitting the
// packed matrix Â(l) in coordinate form. nonzero must contain every row
// present in columns (guaranteed when it came from the same writes).
// Columns are independent, so with workers > 1 they are packed on the
// shared worker pool and the per-column slices concatenated in column
// order — the emitted coordinate sequence is identical for every workers
// value; with one worker the columns append into a single slice with no
// intermediate allocation, exactly the historical serial path. Both paths
// poll ctx between columns, so a cancelled run abandons the pack mid-batch
// and returns ctx.Err().
//
// reuse, when non-nil, is a slice whose backing array the emitted entries
// overwrite and may grow — the batch loop passes the previous batch's
// (consumed) entries so steady state re-packs in place.
func packBatch(ctx context.Context, columns []batchColumn, nonzero []int64, lo uint64, maskBits, workers int, reuse []bitmat.PackedEntry) ([]bitmat.PackedEntry, error) {
	if par.Resolve(workers) <= 1 || len(columns) <= 1 {
		entries := reuse[:0]
		var err error
		for _, cr := range columns {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if entries, err = packColumnInto(entries, cr, nonzero, lo, maskBits); err != nil {
				return nil, err
			}
		}
		return entries, nil
	}
	perCol := make([][]bitmat.PackedEntry, len(columns))
	errs := make([]error, len(columns))
	if err := par.ForEachCtx(ctx, workers, len(columns), func(k int) {
		perCol[k], errs[k] = packColumnInto(nil, columns[k], nonzero, lo, maskBits)
	}); err != nil {
		return nil, err
	}
	total := 0
	for k := range columns {
		if errs[k] != nil {
			return nil, errs[k]
		}
		total += len(perCol[k])
	}
	entries := reuse[:0]
	if cap(entries) < total {
		entries = make([]bitmat.PackedEntry, 0, total)
	}
	for _, part := range perCol {
		entries = append(entries, part...)
	}
	return entries, nil
}

// packColumnInto packs one column's batch rows into MaskBits-wide
// coordinate words appended to entries (the per-column unit of work of
// packBatch). The column's values and the nonzero row list are both sorted
// ascending (Dataset contract, dist.Compact), so the compacted position of
// each value is found by a two-pointer merge — O(nnz + r) per column
// instead of the O(nnz·log r) of a per-value binary search.
func packColumnInto(entries []bitmat.PackedEntry, cr batchColumn, nonzero []int64, lo uint64, maskBits int) ([]bitmat.PackedEntry, error) {
	prevWord := -1
	var cur uint64
	ci := 0
	for _, v := range cr.vals {
		row := int64(v - lo)
		for ci < len(nonzero) && nonzero[ci] < row {
			ci++
		}
		if ci >= len(nonzero) || nonzero[ci] != row {
			return nil, fmt.Errorf("core: row %d missing from filter", row)
		}
		w := ci / maskBits
		if w != prevWord {
			if prevWord >= 0 {
				entries = append(entries, bitmat.PackedEntry{WordRow: prevWord, Col: cr.col, Word: cur})
			}
			prevWord = w
			cur = 0
		}
		cur |= 1 << uint(ci%maskBits)
	}
	if prevWord >= 0 {
		entries = append(entries, bitmat.PackedEntry{WordRow: prevWord, Col: cr.col, Word: cur})
	}
	return entries, nil
}

// wordRowsFor returns ceil(active / maskBits), the packed height of a batch.
func wordRowsFor(active, maskBits int) int {
	return bitutil.WordsFor(active, maskBits)
}
