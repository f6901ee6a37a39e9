package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bitutil"
	"genomeatscale/internal/dist"
	"genomeatscale/internal/par"
)

// This file is the exact tier's batch loop — Listing 1 of the paper, written
// once. Per batch A(l) every process of a run executes
//
//	sliceBatch    — range-slice each of its samples' attributes (Eq. 3)
//	              — accumulate the per-sample cardinalities â (Eq. 4)
//	target.filter — mark the batch's rows into f(l) (Eq. 5), a bitset
//	                with a per-word prefix popcount or, for a hypersparse
//	                batch, a sorted row list (dist.RowRank). Both targets
//	                keep only the rows two of the batch's columns share
//	                and take every B_jj from â; the grid completes f(l)
//	                across processes, where a row's two holders may sit
//	                on one rank or on two
//	packBatch     — compact each value to its row's rank in f(l) (Eq. 6)
//	                and pack the ranks into MaskBits-wide words (Â(l),
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
	ds   Dataset
	cfg  runConfig
	res  *Result     // written by the lead process only
	sink *sinkRunner // driven by the lead process only
}

// target is the seam of the batch loop: the two steps of Listing 1 whose
// implementation depends on the processor grid, plus the final derivation
// that reads the accumulated Gram.
type target interface {
	// filter builds the batch's filter vector from the values of columns,
	// completes it over the whole batch [lo, hi), and returns the columns
	// to pack with it. The filter is valid until the next call.
	filter(columns []batchColumn, lo, hi uint64) ([]batchColumn, *dist.RowRank, error)
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
	// The pack buffers are reused across batches: both targets consume a
	// batch's entries before the next batch packs.
	var pack packBuffers

	for l := 0; l < opts.BatchCount; l++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		batchStart := time.Now()
		lo, hi := batchBounds(m, opts.BatchCount, l)

		// A load failure aborts the run; on the grid the BSP runtime wakes
		// the peers parked at barriers and surfaces this rank's error.
		columns, err := sliceBatch(r.ds, cols, lo, hi)
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
		columns, f, err := tg.filter(columns, lo, hi)
		if err != nil {
			return fmt.Errorf("batch %d: %w", l, err)
		}
		active := f.Count()
		entries, err := packBatch(ctx, columns, f, lo, opts.MaskBits, r.cfg.workers, &pack)
		if err != nil {
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

// sliceBatch extracts the batch range [lo, hi) of the listed samples and
// returns the non-empty columns. Samples are read in ascending column
// order — the access pattern out-of-core datasets prefetch against — and
// a load failure aborts the batch with an error naming the sample.
func sliceBatch(ds Dataset, cols []int, lo, hi uint64) ([]batchColumn, error) {
	if lo >= hi {
		return nil, nil
	}
	var columns []batchColumn
	for _, j := range cols {
		vals, err := ds.SampleRange(j, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("core: loading sample %d (%s): %w", j, ds.SampleName(j), err)
		}
		if len(vals) == 0 {
			continue
		}
		columns = append(columns, batchColumn{col: j, vals: vals})
	}
	return columns, nil
}

// markColumns resets f for the batch [lo, hi) and marks every value of
// columns into it (Eq. 5): no row list, no sort, no copy. f keeps the rows
// that two of the columns share, and the value count picks its form (see
// dist.RowRank).
func markColumns(f *dist.RowRank, columns []batchColumn, lo, hi uint64) {
	values := 0
	for _, c := range columns {
		values += len(c.vals)
	}
	f.Reset(hi-lo, values)
	for _, c := range columns {
		f.Mark(c.vals, lo)
	}
	f.Seal()
}

// packBuffers are packBatch's buffers, reused batch to batch.
type packBuffers struct {
	entries []bitmat.PackedEntry   // the batch's entries, in column order
	perCol  [][]bitmat.PackedEntry // parallel pack: each column's entries
}

// packBatch compacts each column's values to their ranks in the batch's
// filter (Eq. 6) and packs them into MaskBits-wide words, emitting the
// packed matrix Â(l) in coordinate form, sorted by (col, wordRow). Only the
// rows in f — those two samples share — are packed, and a column with no
// shared row emits no entries. Columns are independent, so with workers > 1
// they are packed on the shared worker pool into per-column slices,
// concatenated in column order — the emitted coordinate sequence is
// identical for every workers value; with one worker the columns append
// into a single slice. Both paths poll ctx between columns, so a cancelled
// run abandons the pack mid-batch and returns ctx.Err(), the only error.
//
// The returned entries alias buf, whose slices the next call overwrites and
// may grow, so steady state re-packs in place.
func packBatch(ctx context.Context, columns []batchColumn, f *dist.RowRank, lo uint64, maskBits, workers int, buf *packBuffers) ([]bitmat.PackedEntry, error) {
	entries := buf.entries[:0]
	if par.Resolve(workers) <= 1 || len(columns) <= 1 {
		for _, cr := range columns {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			entries = packColumnInto(entries, cr, f, lo, maskBits)
		}
		buf.entries = entries
		return entries, nil
	}
	if len(buf.perCol) < len(columns) {
		buf.perCol = append(buf.perCol, make([][]bitmat.PackedEntry, len(columns)-len(buf.perCol))...)
	}
	perCol := buf.perCol[:len(columns)]
	if err := par.ForEachCtx(ctx, workers, len(columns), func(k int) {
		perCol[k] = packColumnInto(perCol[k][:0], columns[k], f, lo, maskBits)
	}); err != nil {
		return nil, err
	}
	total := 0
	for _, part := range perCol {
		total += len(part)
	}
	entries = slices.Grow(entries, total)
	for _, part := range perCol {
		entries = append(entries, part...)
	}
	buf.entries = entries
	return entries, nil
}

// packColumnInto packs one column's batch rows into MaskBits-wide
// coordinate words appended to entries (the per-column unit of work of
// packBatch). Each value's compacted row is its rank in f — a popcount in
// the bitset form, a gallop from the previous rank in the list form — so a
// column costs O(values in the column), whatever the batch's size. A value
// whose row f lacks is unshared and skipped; its rank is still a lower
// bound for the next value's.
func packColumnInto(entries []bitmat.PackedEntry, cr batchColumn, f *dist.RowRank, lo uint64, maskBits int) []bitmat.PackedEntry {
	prevWord, wordEnd := -1, 0 // current word and its first rank past the end
	var cur uint64
	rank := 0
	for _, v := range cr.vals {
		var ok bool
		if rank, ok = f.Rank(v-lo, rank); !ok {
			continue
		}
		if rank >= wordEnd {
			if prevWord >= 0 {
				entries = append(entries, bitmat.PackedEntry{WordRow: prevWord, Col: cr.col, Word: cur})
			}
			prevWord, cur = rank/maskBits, 0
			wordEnd = (prevWord + 1) * maskBits
		}
		cur |= 1 << uint(rank-prevWord*maskBits)
	}
	if prevWord >= 0 {
		entries = append(entries, bitmat.PackedEntry{WordRow: prevWord, Col: cr.col, Word: cur})
	}
	return entries
}

// wordRowsFor returns ceil(active / maskBits), the packed height of a batch.
func wordRowsFor(active, maskBits int) int {
	return bitutil.WordsFor(active, maskBits)
}
