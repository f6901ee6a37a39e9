package genomeatscale

import (
	"context"

	"genomeatscale/internal/core"
	"genomeatscale/internal/tile"
)

// Option configures an Engine; pass Options to NewEngine. Each With*
// function overrides one field of the paper's default configuration
// (DefaultOptions).
type Option func(*Options)

// WithProcs sets the number of virtual BSP ranks; values above 1 run the
// pipeline on the processor grid. Under WithAutotune this pins the rank
// count: the tuner plans around it instead of choosing its own.
func WithProcs(p int) Option {
	return func(o *Options) { o.Procs = p; o.SetExplicit(core.FieldProcs) }
}

// WithWorkers sets the shared-memory worker-goroutine count per process
// (0 = a fair share of the available CPUs per rank, all of them for a
// single process; 1 = the exact serial kernels).
func WithWorkers(w int) Option {
	return func(o *Options) { o.Workers = w; o.SetExplicit(core.FieldWorkers) }
}

// WithBatches sets the number of row batches the indicator matrix is split
// into (r in Eq. 3 of the paper). Pinned under WithAutotune.
func WithBatches(r int) Option {
	return func(o *Options) { o.BatchCount = r; o.SetExplicit(core.FieldBatchCount) }
}

// WithMaskBits sets the bitmask compression width b (1..64). Pinned under
// WithAutotune.
func WithMaskBits(b int) Option {
	return func(o *Options) { o.MaskBits = b; o.SetExplicit(core.FieldMaskBits) }
}

// WithDenseThreshold sets the stored-word count at which a packed column is
// held as a dense slab (0 = auto, negative = always sparse). Pinned under
// WithAutotune.
func WithDenseThreshold(t int) Option {
	return func(o *Options) { o.DenseThreshold = t; o.SetExplicit(core.FieldDenseThreshold) }
}

// WithReplication sets the processor-grid replication factor c of the
// √(p/c) × √(p/c) × c layout. Pinned under WithAutotune.
func WithReplication(c int) Option {
	return func(o *Options) { o.Replication = c; o.SetExplicit(core.FieldReplication) }
}

// WithTileRows sets the row-band height of the tiles a single-process run
// emits when streaming (0 = default). A grid run's tiles are the
// processor-grid result blocks and ignore this setting. Pinned under
// WithAutotune.
func WithTileRows(r int) Option {
	return func(o *Options) { o.TileRows = r; o.SetExplicit(core.FieldTileRows) }
}

// WithSketchPrescreen enables the MinHash prescreening tier: bottom-k
// sketches of size `size` estimate every pairwise Jaccard first, and only
// pairs whose estimate reaches threshold − slack run through the exact
// tiled kernel; the rest are pruned (reported as B = 0, S = 0, D = 1)
// without ever touching the popcount path. Surviving pairs are
// byte-identical to a non-prescreened run, so composing with a
// ThresholdSink at the same threshold trades a little recall — reported
// as RunStats.Sketch.EstimatedRecall — for skipping the exact work of
// everything below the gate.
//
// size 0 derives the sketch size from threshold and slack (and is tunable
// under WithAutotune; an explicit size is pinned); slack 0 uses the
// default margin. Prescreening runs in a single process only: combine it
// with WithProcs(1) (the default), not a rank grid.
func WithSketchPrescreen(size int, threshold, slack float64) Option {
	return func(o *Options) {
		o.Sketch = core.SketchOptions{Size: size, Threshold: threshold, Slack: slack}
		if size > 0 {
			o.SetExplicit(core.FieldSketchSize)
		}
	}
}

// WithAutotune derives the run configuration from the dataset instead of
// the defaults: each Similarity or Stream call samples the dataset's
// dimensions and density, feeds them with the host profile (cores, memory
// bandwidth, available memory — measured once in NewEngine) into the BSP
// cost model, and picks the rank grid, replication, batch count, tile rows
// and dense-storage threshold that minimise the predicted time. Options
// set through the other With* functions are pinned: the tuner plans around
// them. The decisions, the sampled statistics and the model's predictions
// are recorded in Result.Stats.Tuning. Tuning never changes results — only
// how they are computed.
func WithAutotune(on bool) Option { return func(o *Options) { o.Autotune = on } }

// Engine is a reusable, validated SimilarityAtScale configuration. Option
// validation, the processor-grid layout and the worker-pool sizing happen
// once in NewEngine and are amortised across calls; the engine is
// immutable and safe for concurrent use.
//
// Both entry points take a context: cancelling it aborts the batch loop,
// the per-column pack stage and the BSP superstep barriers, returning
// ctx.Err() promptly with no leaked goroutines.
type Engine struct {
	core *core.Engine
}

// NewEngine builds an engine from the paper's defaults with the given
// overrides applied, validating the resulting configuration once.
func NewEngine(options ...Option) (*Engine, error) {
	o := DefaultOptions()
	for _, opt := range options {
		opt(&o)
	}
	ce, err := core.NewEngine(o)
	if err != nil {
		return nil, err
	}
	return &Engine{core: ce}, nil
}

// Options returns the configuration the engine was built with.
func (e *Engine) Options() Options { return e.core.Options() }

// Similarity runs SimilarityAtScale and assembles the full B, S and D
// matrices (at rank 0 of a multi-process run). It is Stream driving the
// engine's own collecting sink.
func (e *Engine) Similarity(ctx context.Context, ds Dataset) (*Result, error) {
	return e.core.Similarity(ctx, ds)
}

// Stream runs SimilarityAtScale and delivers the result to sink as a
// sequence of finalized tiles instead of assembling the n×n matrices; the
// returned Result carries cardinalities and run statistics (tiles emitted,
// peak resident tile words, sink time) but nil B, S and D. Sink calls
// happen on a single goroutine in deterministic (RowLo, ColLo) order;
// tiles are only valid during Emit. Streaming into CollectFull reproduces
// Engine.Similarity byte for byte; TopK and Threshold keep the output
// memory bounded by the reduction instead of n².
func (e *Engine) Stream(ctx context.Context, ds Dataset, sink TileSink) (*Result, error) {
	return e.core.Stream(ctx, ds, sink)
}

// Tile is one finalized rectangular block of the result matrices: rows
// [RowLo, RowLo+Rows) × columns [ColLo, ColLo+Cols) of B, S and D in
// row-major order. Tiles are only valid during the Emit call delivering
// them.
type Tile = core.Tile

// TileSink consumes finalized tiles during Engine.Stream. Sinks may
// optionally implement Start(n, names) and Flush() (see internal/tile's
// Starter and Flusher), which the engine invokes around the tile sequence.
type TileSink = core.TileSink

// Pair is one upper-triangle sample pair (I < J) retained by a reducing
// sink, with its Jaccard similarity.
type Pair = tile.Pair

// CollectSink reassembles streamed tiles into full dense matrices.
type CollectSink = tile.Collect

// TopKSink retains the k most similar pairs in O(k) memory.
type TopKSink = tile.TopKSink

// ThresholdSink retains every pair at or above a similarity threshold.
type ThresholdSink = tile.ThresholdSink

// CollectFull returns a sink that reassembles the emitted tiles into full
// B, S and D matrices, byte-identical to the ones Engine.Similarity
// returns.
func CollectFull() *CollectSink { return tile.NewCollect() }

// TopK returns a sink retaining the k most similar sample pairs (i < j)
// seen across all tiles, in O(k) memory. Ties are broken deterministically
// by ascending (i, j).
func TopK(k int) *TopKSink { return tile.NewTopK(k) }

// Threshold returns a sink retaining every sample pair (i < j) whose
// similarity is at least tau — the near-duplicate query where the
// interesting output is far smaller than n².
func Threshold(tau float64) *ThresholdSink { return tile.NewThreshold(tau) }

// Discard drops every tile: the run (and its statistics) execute without
// materialising any output.
var Discard TileSink = tile.Discard

// SortPairs orders pairs by descending similarity, ties by ascending
// (I, J) — the order the reducing sinks return and the order a post-hoc
// full-matrix scan must apply to agree with them.
func SortPairs(pairs []Pair) { tile.SortPairs(pairs) }
