package core

import (
	"context"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bsp"
	"genomeatscale/internal/dist"
	"genomeatscale/internal/par"
	"genomeatscale/internal/sparse"
)

// This file holds the two implementations of the batch loop's target seam
// (batch.go). Which one a run uses follows from its configuration alone
// (runConfig.local): one process without a transport sees every sample and
// accumulates locally; anything else is a rank of the processor grid.

// localTarget is the single-process target. Every sample is visible, so
// the filter vector needs no exchange (dist.Compact of the local rows is
// the whole of it) and the Gram accumulates into one dense n×n matrix with
// the popcount kernel. No BSP runtime is started.
type localTarget struct {
	*batchRun
	b *sparse.Dense[int64] // the accumulated Gram; becomes the tiles' B
	// arena cycles the batch's transient buffers — the packed matrix's
	// streams and slabs, the Gram tile list and per-worker accumulators —
	// so the steady state of a multi-batch run allocates ~nothing.
	arena    *bitmat.Arena
	mask     *bitmat.PairMask // prescreen survivors; nil without Options.Sketch
	bandRows int              // row-band height of the emitted tiles
}

// runLocal runs the batch loop in the calling goroutine against a
// localTarget, after the MinHash prescreening tier when it is configured.
func (e *Engine) runLocal(r *batchRun, oneBand bool) error {
	n := r.res.N
	tg := &localTarget{batchRun: r, b: sparse.MustDense[int64](n, n), bandRows: min(r.cfg.tileRows, n)}
	if oneBand {
		tg.bandRows = n
	}
	if r.cfg.sketch.enabled {
		// Sketch every sample, estimate every pair, and gate the exact tier
		// on the survivor mask. The exact tier then re-scans from sample 0,
		// so hint the restart like any batch boundary.
		mask, stats, err := prescreen(r.ctx, r.ds, n, r.ds.NumAttributes(), r.cfg)
		if err != nil {
			return err
		}
		tg.mask, r.res.Stats.Sketch = mask, stats
		prefetchNextScan(r.ds, n)
	}
	tg.arena = e.getArena()
	defer e.putArena(tg.arena)

	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return r.loop(cols, true, tg)
}

func (t *localTarget) filter(columns []batchColumn, rows []int64, lo, _ uint64) ([]batchColumn, []int64) {
	if t.mask != nil {
		// Prescreen column masking: samples with no surviving partner are
		// dropped from the pack and from the empty-row filter — after the
		// loop's cardinality accumulation, so â stays exact for every
		// sample. Candidate pairs' intersection counts are unchanged: rows
		// present only in pruned columns contribute nothing to surviving
		// pairs.
		columns, rows = maskBatchColumns(columns, t.mask, lo)
	}
	return columns, dist.Compact(rows)
}

func (t *localTarget) gram(ctx context.Context, entries []bitmat.PackedEntry, active int) error {
	opts := t.cfg.opts
	packed := bitmat.FromEntriesThresholdArena(entries, wordRowsFor(active, opts.MaskBits), t.b.Rows, opts.MaskBits, active, opts.DenseThreshold, t.arena)
	if tr := t.cfg.tuning; tr != nil && t.res.Stats.Batches == 0 {
		tr.MeasuredOccupancy = packed.WordOccupancy()
	}
	err := packed.GramAccumulateMaskedCtxArena(ctx, t.b, t.cfg.workers, t.arena, t.mask)
	packed.Release()
	return err
}

// finish derives S and D band by band (Eq. 2) and emits each band as one
// full-width tile whose B aliases the accumulator. The band buffers are
// reused across bands, so the resident derived output never exceeds one
// tile. B is exactly symmetric and the Eq. 2 scalar is symmetric in
// (i, j), so deriving every (i, j) directly needs no mirroring pass.
func (t *localTarget) finish(ctx context.Context, counts []int64, emit func(*Tile) error) ([]int64, error) {
	if t.mask != nil {
		restoreIsolatedDiagonals(t.b, t.mask, counts)
	}
	n, band := t.b.Rows, t.bandRows
	sbuf := make([]float64, band*n)
	dbuf := make([]float64, band*n)
	for lo := 0; lo < n; lo += band {
		rows := min(band, n-lo)
		err := par.ForEachCtx(ctx, t.cfg.workers, rows, func(i int) {
			dist.JaccardRow(sbuf[i*n:(i+1)*n], dbuf[i*n:(i+1)*n], t.b.Row(lo+i), counts[lo+i], counts)
		})
		if err != nil {
			return nil, err
		}
		tl := &Tile{
			RowLo: lo, Rows: rows, Cols: n,
			B: t.b.Data[lo*n : (lo+rows)*n], S: sbuf[:rows*n], D: dbuf[:rows*n],
		}
		if err := emit(tl); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// gridTarget is one BSP rank of the √(p/c) × √(p/c) × c processor grid. It
// reads its cyclically owned samples, completes the filter vector through
// the replicated prefix sum of dist.FilterVector, and accumulates its
// block of the Gram in dist.GramEngine. All communication flows through
// the BSP runtime, so Result.Stats.Comm reports the exact per-superstep
// byte volumes of the run.
type gridTarget struct {
	*batchRun
	p      *bsp.Proc
	dctx   *dist.Context
	engine *dist.GramEngine
}

// runGrid runs the batch loop on every rank of the run's grid: as Procs
// goroutines of this process, or — with a Transport — as the one rank this
// process contributes to a multi-process job.
func runGrid(r *batchRun) error {
	opts, n := r.cfg.opts, r.res.N
	rank := func(p *bsp.Proc) error {
		dctx := dist.NewContextWithGrid(p, r.cfg.grid)
		tg := &gridTarget{batchRun: r, p: p, dctx: dctx,
			engine: dist.NewGramEngine(dctx, n, r.cfg.workers, opts.DenseThreshold)}
		return r.loop(dctx.OwnedSamples(n), p.Rank() == 0, tg)
	}
	var comm *bsp.Stats
	var err error
	if t := opts.Transport; t != nil {
		comm, err = bsp.RunRank(r.ctx, t, rank)
	} else {
		comm, err = bsp.RunCtx(r.ctx, opts.Procs, rank)
	}
	if err != nil {
		return err
	}
	r.res.Stats.Comm, r.res.Stats.Transport = comm, comm.Transport
	return nil
}

func (t *gridTarget) filter(columns []batchColumn, rows []int64, lo, hi uint64) ([]batchColumn, []int64) {
	f := dist.NewFilterVector(t.dctx, max(1, int64(hi)-int64(lo)))
	f.Write(rows)
	return columns, f.Replicate()
}

func (t *gridTarget) gram(_ context.Context, entries []bitmat.PackedEntry, active int) error {
	maskBits := t.cfg.opts.MaskBits
	t.engine.AddBatch(entries, wordRowsFor(active, maskBits), maskBits, active)
	return nil
}

// finish sums the per-rank cardinality counts (each sample is owned by
// exactly one rank, so the elementwise sum assembles â), reduces the
// layers' partial blocks, and emits each grid block's tile at rank 0.
func (t *gridTarget) finish(_ context.Context, counts []int64, emit func(*Tile) error) ([]int64, error) {
	counts = bsp.AllReduceSlice(t.p, counts, func(a, b int64) int64 { return a + b })
	return counts, t.engine.Finalize(counts).EmitTiles(0, emit)
}
