package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/costmodel"
	"genomeatscale/internal/grid"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// Tile is one finalized block of the result matrices, the unit of
// streaming output (see internal/tile).
type Tile = tile.Tile

// TileSink consumes finalized tiles during an Engine.Stream run.
type TileSink = tile.Sink

// Engine is a reusable, validated SimilarityAtScale configuration. The
// per-run fixed decisions — option validation, the √(p/c) × √(p/c) × c
// processor-grid layout, and the shared-memory worker-pool sizing — are
// made once at construction and amortised across calls; Similarity and
// Stream are then safe to invoke repeatedly and concurrently from multiple
// goroutines. With Options.Autotune those
// decisions move to run time — they depend on the dataset — and each run
// resolves its own configuration (configFor) against the host profile
// probed once at construction; the engine stays safe for concurrent use.
//
// Both entry points honour context cancellation: the batch loop, the
// per-column pack stage and the BSP superstep barriers all observe ctx, so
// a cancelled run returns ctx.Err() promptly with every worker and rank
// goroutine joined.
type Engine struct {
	opts   Options
	static runConfig         // resolved per-run decisions when Autotune is off
	mach   costmodel.Machine // host profile driving run-time tuning (Autotune)

	// arenas is the free list of batch-buffer arenas: each run checks one
	// out (getArena) and returns it at the end, so concurrent runs never
	// share per-worker tile slots while steady-state batch loops still
	// reuse one run's buffers in the next.
	mu     sync.Mutex
	arenas []*bitmat.Arena
}

// runConfig is the resolved configuration of one run: the validated
// options plus the decisions derived from them once per run (grid layout,
// worker-pool size, streaming tile height) and, for autotuned runs, the
// report recording how the configuration was chosen.
type runConfig struct {
	opts     Options
	grid     grid.Grid
	workers  int // resolved shared-memory pool size of each process of the run
	tileRows int // resolved row-band height of the local target's tiles
	sketch   sketchConfig
	tuning   *TuningReport
}

// local reports which target the run accumulates into: a single process
// with no transport sees every sample and runs the local target; anything
// else runs the grid target over the BSP runtime.
func (c runConfig) local() bool { return c.opts.Procs == 1 && c.opts.Transport == nil }

// resolveConfig derives the per-run decisions from a validated Options.
func resolveConfig(opts Options) runConfig {
	cfg := runConfig{
		opts:     opts,
		grid:     grid.MustChoose(opts.Procs, opts.Replication),
		workers:  opts.Workers,
		tileRows: opts.TileRows,
	}
	// All Procs in-process ranks share this machine, so the default
	// Workers: 0 resolves to a fair share of the CPUs per rank rather than
	// a full GOMAXPROCS pool per rank (which would oversubscribe the
	// machine Procs-fold); a local run is the Procs == 1 case and gets
	// every CPU. Over a multi-process Transport this process runs a single
	// rank, so that rank gets the whole machine. An explicit Workers value
	// is taken as given.
	if cfg.workers == 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
		if opts.Transport == nil {
			cfg.workers = max(1, cfg.workers/opts.Procs)
		}
	}
	if cfg.tileRows == 0 {
		cfg.tileRows = DefaultTileRows
	}
	cfg.sketch = resolveSketch(opts)
	return cfg
}

// NewEngine validates opts and builds a reusable engine for it. With
// Options.Autotune the host profile (CPU count, streaming-bandwidth probe,
// available memory — costmodel.Detect) is captured here, once, so repeated
// runs pay only the cheap per-dataset statistics sampling.
func NewEngine(opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, static: resolveConfig(opts)}
	if opts.Autotune {
		e.mach = costmodel.Detect()
	}
	return e, nil
}

// Options returns the configuration the engine was built with.
func (e *Engine) Options() Options { return e.opts }

// getArena checks a batch-buffer arena out of the engine's free list,
// growing the list on first use or under run concurrency.
func (e *Engine) getArena() *bitmat.Arena {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.arenas); n > 0 {
		a := e.arenas[n-1]
		e.arenas = e.arenas[:n-1]
		return a
	}
	return bitmat.NewArena()
}

func (e *Engine) putArena(a *bitmat.Arena) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.arenas = append(e.arenas, a)
}

// Similarity runs the pipeline and assembles the full B, S and D matrices
// (at rank 0 over a multi-process Transport; the other ranks return nil
// matrices). It is the same run as Stream, driving the engine's own
// collecting sink.
func (e *Engine) Similarity(ctx context.Context, ds Dataset) (*Result, error) {
	var c collector
	res, err := e.run(ctx, ds, &c, true)
	if err != nil {
		return nil, err
	}
	res.B, res.S, res.D = c.b, c.s, c.d
	return res, nil
}

// Stream runs the pipeline and delivers the result to sink as a sequence
// of finalized tiles instead of assembling the n×n matrices: the returned
// Result carries cardinalities and run statistics (including the streaming
// counters) but nil B, S and D. The local target emits row bands of
// Options.TileRows rows; the grid target emits each processor-grid result
// block as soon as rank 0 receives it. Sink calls happen on a single
// goroutine in deterministic (RowLo, ColLo) order; a sink error aborts the
// run and is returned.
func (e *Engine) Stream(ctx context.Context, ds Dataset, sink TileSink) (*Result, error) {
	if sink == nil {
		return nil, fmt.Errorf("core: Stream requires a sink (use tile.Discard to drop the output)")
	}
	return e.run(ctx, ds, sink, false)
}

// run is the one execution path behind both entry points: validate the
// input, resolve the configuration, and drive the batch loop against the
// target the configuration selects. oneBand asks the local target for a
// single band of height n (the gathered output) instead of TileRows bands.
func (e *Engine) run(ctx context.Context, ds Dataset, sink TileSink, oneBand bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateDataset(ds); err != nil {
		return nil, err
	}
	cfg, err := e.configFor(ds)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{N: ds.NumSamples(), Names: sampleNames(ds)}
	res.Stats.Tuning = cfg.tuning
	r := &batchRun{ctx: ctx, ds: AsV2(ds), cfg: cfg, res: res, sink: &sinkRunner{sink: sink, stats: &res.Stats}}
	if cfg.local() {
		err = e.runLocal(r, oneBand)
	} else {
		err = runGrid(r)
	}
	if err != nil {
		return nil, err
	}
	captureIngest(ds, &res.Stats)
	res.Stats.TotalSeconds = time.Since(start).Seconds()
	return res, nil
}

func sampleNames(ds Dataset) []string {
	names := make([]string, ds.NumSamples())
	for i := range names {
		names[i] = ds.SampleName(i)
	}
	return names
}

// prefetchNextScan begins re-loading the samples the next batch's scan
// will read, starting from sample 0, while the current batch's Gram
// accumulation computes — the batch-t+1-loads-under-batch-t-compute
// overlap of the out-of-core design. It uses the non-blocking
// RangePrefetcher hint, so the engine spawns no goroutine of its own and
// nothing outlives the run on its behalf; datasets without the hint (all
// in-memory ones) have nothing to overlap. Memory-bounded loaders clamp
// the hint to their resident budget, and a failed background load is
// cached by the dataset and re-surfaces from SampleErr when the next scan
// reaches the sample, so no failure is lost.
func prefetchNextScan(v2 DatasetV2, n int) {
	if rp, ok := v2.(RangePrefetcher); ok {
		rp.PrefetchRange(0, n)
	}
}

// captureIngest copies the dataset's ingestion counters (loads, evictions,
// peak resident samples) into the run statistics when the dataset exposes
// them.
func captureIngest(ds Dataset, stats *RunStats) {
	if is, ok := ds.(IngestStatser); ok {
		s := is.IngestStats()
		stats.Ingest = &s
	}
}

// sinkRunner funnels every sink interaction through one place so the run
// statistics (tiles emitted, peak tile words, time spent in the consumer)
// mean the same thing on every run.
type sinkRunner struct {
	sink  TileSink
	stats *RunStats
}

func (sr *sinkRunner) start(n int, names []string) error {
	t0 := time.Now()
	err := tile.Start(sr.sink, n, names)
	sr.stats.SinkSeconds += time.Since(t0).Seconds()
	return err
}

func (sr *sinkRunner) emit(t *Tile) error {
	t0 := time.Now()
	err := sr.sink.Emit(t)
	sr.stats.SinkSeconds += time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	sr.stats.TilesEmitted++
	if w := t.Words(); w > sr.stats.PeakTileWords {
		sr.stats.PeakTileWords = w
	}
	return nil
}

func (sr *sinkRunner) flush() error {
	t0 := time.Now()
	err := tile.Flush(sr.sink)
	sr.stats.SinkSeconds += time.Since(t0).Seconds()
	return err
}

// collector is the engine's own sink behind Engine.Similarity: it assembles
// the emitted tiles into the n×n matrices of the Result. A tile spanning
// the whole output is adopted, not copied: the engine is producer and
// consumer here, and both targets derive such a tile into buffers they
// allocate for the run and never touch again. That keeps a gathered local
// run at three n×n matrices — B is the Gram accumulator itself, S and D
// the single band — which matters because n² is the large output term.
type collector struct {
	n       int
	b       *sparse.Dense[int64]
	s, d    *sparse.Dense[float64]
	partial *tile.Collect // assembles tiles smaller than the output
}

func (c *collector) Start(n int, _ []string) error {
	c.n = n
	return nil
}

func (c *collector) Emit(t *Tile) error {
	n := c.n
	if t.Rows == n && t.Cols == n {
		c.b = &sparse.Dense[int64]{Rows: n, Cols: n, Data: t.B}
		c.s = &sparse.Dense[float64]{Rows: n, Cols: n, Data: t.S}
		c.d = &sparse.Dense[float64]{Rows: n, Cols: n, Data: t.D}
		return nil
	}
	if c.partial == nil {
		c.partial = tile.NewCollect()
		if err := c.partial.Start(n, nil); err != nil {
			return err
		}
		c.b, c.s, c.d = c.partial.B(), c.partial.S(), c.partial.D()
	}
	return c.partial.Emit(t)
}
