package core

import (
	"context"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/bsp"
	"genomeatscale/internal/dist"
	"genomeatscale/internal/par"
)

// This file holds the two implementations of the batch loop's target seam
// (batch.go). Which one a run uses follows from its configuration alone
// (runConfig.local): one process without a transport sees every sample and
// accumulates locally; anything else is a rank of the processor grid.

// localTarget is the single-process target. Every sample is visible, so
// the filter vector needs no exchange (marking every column's values is the
// whole of it) and the Gram accumulates with the popcount kernel into one
// upper triangle of n(n+1)/2 cells of type C — the only cells the kernel
// computes. No BSP runtime is started. The filter keeps only the rows two
// columns share — the only rows an off-diagonal B_ij sums — and finish
// sets each diagonal B_jj to the exact cardinality â_j.
type localTarget[C bitmat.Cell] struct {
	*batchRun
	b    *bitmat.Triangle[C] // the accumulated Gram, expanded band by band into the tiles' B
	rows dist.RowRank        // the batch's filter, reused batch to batch
	// arena cycles the batch's transient buffers — the packed matrix's
	// streams and slabs, the Gram tile list and per-worker accumulators —
	// so the steady state of a multi-batch run allocates ~nothing.
	arena    *bitmat.Arena
	mask     *bitmat.PairMask // prescreen survivors; nil without Options.Sketch
	bandRows int              // row-band height of the emitted tiles
}

// narrowCells reports whether the local Gram of a run over m attributes
// fits uint32 cells: every B_ij counts attributes, so B_ij ≤ m.
func narrowCells(m uint64) bool { return m < 1<<32 }

// runLocal runs the batch loop in the calling goroutine against a
// localTarget whose cell width follows from the dataset, after the MinHash
// prescreening tier when it is configured.
func (e *Engine) runLocal(r *batchRun, oneBand bool) error {
	if narrowCells(r.ds.NumAttributes()) {
		return runLocalCells[uint32](e, r, oneBand)
	}
	return runLocalCells[int64](e, r, oneBand)
}

func runLocalCells[C bitmat.Cell](e *Engine, r *batchRun, oneBand bool) error {
	n := r.res.N
	tg := &localTarget[C]{batchRun: r, b: bitmat.NewTriangle[C](n), bandRows: min(r.cfg.tileRows, n)}
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

func (t *localTarget[C]) filter(columns []batchColumn, lo, hi uint64) ([]batchColumn, *dist.RowRank, error) {
	if t.mask != nil {
		// Prescreen column masking: samples with no surviving partner are
		// dropped from the pack and from the shared-row filter — after the
		// loop's cardinality accumulation, so â stays exact for every
		// sample. Candidate pairs' intersection counts are unchanged: rows
		// present only in pruned columns contribute nothing to surviving
		// pairs.
		columns = maskBatchColumns(columns, t.mask)
	}
	markColumns(&t.rows, columns, lo, hi)
	return columns, &t.rows, nil
}

func (t *localTarget[C]) gram(ctx context.Context, entries []bitmat.PackedEntry, active int) error {
	opts := t.cfg.opts
	packed := bitmat.FromEntriesThresholdArena(entries, wordRowsFor(active, opts.MaskBits), t.b.N, opts.MaskBits, active, opts.DenseThreshold, t.arena)
	if tr := t.cfg.tuning; tr != nil && t.res.Stats.Batches == 0 {
		tr.MeasuredOccupancy = packed.WordOccupancy()
	}
	err := bitmat.GramAccumulateTriangle(ctx, packed, t.b, t.cfg.workers, t.arena, t.mask)
	packed.Release()
	return err
}

// finishChunk is the row count of one parallel unit of finish: small
// enough that the below-diagonal column writes of a chunk's expansion stay
// in cache (see Triangle.ExpandRows) and that a band splits into many
// units.
const finishChunk = 16

// forChunks runs fn over [0, rows) in finishChunk-row chunks on the worker
// pool.
func forChunks(ctx context.Context, workers, rows int, fn func(i0, i1 int)) error {
	return par.ForEachCtx(ctx, workers, (rows+finishChunk-1)/finishChunk, func(c int) {
		i0 := c * finishChunk
		fn(i0, min(i0+finishChunk, rows))
	})
}

// finish derives the output band by band. Each band's B is expanded from
// the triangle into one reused TileRows × n int64 buffer, and each
// diagonal B_jj is set to â_j: a column's intersection with itself, which
// the kernel would give over every row, where the shared-row pack gives it
// only the shared ones. The prescreen mask keeps every non-empty sample's
// diagonal (a sketch estimates 1 against itself, at or above any gate),
// and an empty sample's B_jj is 0 either way. S and D then follow from the
// band's B (Eq. 2), chunk by chunk while the chunk's B rows are in cache,
// and the band is emitted as one full-width tile. The band buffers are
// reused across bands, so the resident output never exceeds one tile
// beside the triangle. A single band of n rows (the gathered run) instead
// expands all of B first and drops the triangle before S and D are
// allocated, so it never holds more than three n × n matrices.
func (t *localTarget[C]) finish(ctx context.Context, counts []int64, emit func(*Tile) error) ([]int64, error) {
	n, band := t.b.N, t.bandRows
	bbuf := make([]int64, band*n)
	var sbuf, dbuf []float64
	if band < n {
		sbuf, dbuf = make([]float64, band*n), make([]float64, band*n)
	}
	for lo := 0; lo < n; lo += band {
		rows := min(band, n-lo)
		derive := func(i0, i1 int) {
			for i := i0; i < i1; i++ {
				dist.JaccardRow(sbuf[i*n:(i+1)*n], dbuf[i*n:(i+1)*n], bbuf[i*n:(i+1)*n], counts[lo+i], counts)
			}
		}
		err := forChunks(ctx, t.cfg.workers, rows, func(i0, i1 int) {
			t.b.ExpandRows(bbuf[i0*n:i1*n], lo+i0, i1-i0)
			for i := i0; i < i1; i++ {
				bbuf[i*n+lo+i] = counts[lo+i]
			}
			if sbuf != nil {
				derive(i0, i1)
			}
		})
		if err == nil && sbuf == nil {
			t.b = nil
			sbuf, dbuf = make([]float64, band*n), make([]float64, band*n)
			err = forChunks(ctx, t.cfg.workers, rows, derive)
		}
		if err != nil {
			return nil, err
		}
		tl := &Tile{
			RowLo: lo, Rows: rows, Cols: n,
			B: bbuf[:rows*n], S: sbuf[:rows*n], D: dbuf[:rows*n],
		}
		if err := emit(tl); err != nil {
			return nil, err
		}
	}
	return counts, nil
}

// gridTarget is one BSP rank of the √(p/c) × √(p/c) × c processor grid. It
// reads its cyclically owned samples, marks their rows into its share of
// the filter vector, completes it in one exchange (dist.FilterVector), and
// accumulates its block of the Gram in dist.GramEngine. Like the local
// target, it keeps only the rows two samples share — on one rank or on two
// — and the engine sets each diagonal B_jj to â_j. All communication flows
// through the BSP runtime, so Result.Stats.Comm reports the exact
// per-superstep byte volumes of the run.
type gridTarget struct {
	*batchRun
	p      *bsp.Proc
	dctx   *dist.Context
	fv     *dist.FilterVector // holds this rank's share of the filter
	engine *dist.GramEngine
}

// runGrid runs the batch loop on every rank of the run's grid: as Procs
// goroutines of this process, or — with a Transport — as the one rank this
// process contributes to a multi-process job.
func runGrid(r *batchRun) error {
	opts, n := r.cfg.opts, r.res.N
	rank := func(p *bsp.Proc) error {
		dctx := dist.NewContextWithGrid(p, r.cfg.grid)
		tg := &gridTarget{batchRun: r, p: p, dctx: dctx, fv: dist.NewFilterVector(dctx),
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

func (t *gridTarget) filter(columns []batchColumn, lo, hi uint64) ([]batchColumn, *dist.RowRank, error) {
	markColumns(t.fv.Part(), columns, lo, hi)
	f, err := t.fv.Replicate()
	return columns, f, err
}

func (t *gridTarget) gram(_ context.Context, entries []bitmat.PackedEntry, active int) error {
	maskBits := t.cfg.opts.MaskBits
	return t.engine.AddBatch(entries, wordRowsFor(active, maskBits), maskBits, active)
}

// finish sums the per-rank cardinality counts (each sample is owned by
// exactly one rank, so the elementwise sum assembles â), reduces the
// layers' partial blocks, and emits each grid block's tile at rank 0.
func (t *gridTarget) finish(_ context.Context, counts []int64, emit func(*Tile) error) ([]int64, error) {
	counts = bsp.AllReduceSlice(t.p, counts, func(a, b int64) int64 { return a + b })
	return counts, t.engine.Finalize(counts).EmitTiles(0, emit)
}
