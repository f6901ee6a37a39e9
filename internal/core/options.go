package core

import (
	"fmt"

	"genomeatscale/internal/bsp"
	"genomeatscale/internal/costmodel"
	"genomeatscale/internal/sparse"
)

// Options configures a SimilarityAtScale run. The zero value is not usable;
// call DefaultOptions or fill every relevant field and call Validate.
type Options struct {
	// BatchCount is the number of row batches the indicator matrix is split
	// into (r in Eq. 3). Larger values reduce the peak memory of a batch at
	// the cost of more synchronisation; the paper's batch-size sensitivity
	// experiments (Fig. 2c, 2d) vary exactly this parameter.
	BatchCount int

	// MaskBits is the bitmask width b used to compress row segments
	// (Section III-B). The paper uses 32 or 64; 64 is the default.
	MaskBits int

	// Procs is the number of BSP ranks of the run. The paper runs 32 MPI
	// processes per node; our benchmarks express node counts as
	// Procs = 32 × nodes scaled down for in-process execution. With
	// Procs == 1 and no Transport the run is a single process that sees
	// every sample (the local target: no BSP runtime is started);
	// otherwise the ranks form the processor grid (the grid target).
	Procs int

	// Replication is the processor-grid replication factor c of the
	// √(p/c) × √(p/c) × c layout (Section III-C).
	Replication int

	// Workers is the number of shared-memory worker goroutines used inside
	// one process by the tiled Gram kernel, the per-column batch packing and
	// the Eq. 2 derivation of the result tiles. 1 selects the exact serial
	// kernel; n > 1 uses n workers; results are identical for every value.
	// 0 (the default) sizes the pool automatically: each of the Procs
	// in-process ranks gets a fair share of the CPUs,
	// max(1, GOMAXPROCS/Procs) — every CPU for a single process — so the
	// default never oversubscribes the machine. An explicit value is taken
	// as given.
	Workers int

	// DenseThreshold controls the hybrid dense/sparse column storage of the
	// packed batch matrices Â(l) in internal/bitmat. Columns whose
	// stored-word count reaches the threshold are held as a contiguous
	// dense word slab and processed by the contiguous AND+popcount kernels;
	// the rest keep the compact sorted (wordRow, word) stream and the merge
	// kernel. 0 (the default) resolves to ~¼ of the batch's word rows
	// (bitmat.DenseAuto); a negative value disables dense storage entirely
	// (bitmat.DenseNever, the historical sparse-only layout); a positive
	// value is an explicit stored-word count (1 = every non-empty column
	// dense). The choice only affects storage and kernel selection — B, S
	// and D are byte-identical for every value.
	DenseThreshold int

	// TileRows is the row-band height of the tiles a single-process run
	// emits when streaming through Engine.Stream: the n-column output is
	// derived and handed to the sink TileRows rows at a time, so the peak
	// resident S/D footprint is TileRows·n values instead of n². 0 (the
	// default) resolves to DefaultTileRows. Grid runs ignore TileRows —
	// their tiles are the processor grid's result blocks.
	TileRows int

	// Sketch configures the MinHash prescreening tier: when enabled, cheap
	// bottom-k sketches estimate every pairwise Jaccard first and only
	// pairs whose estimate reaches Threshold − Slack run through the exact
	// tiled Gram kernel; everything below is pruned, reported as B = 0,
	// S = 0, D = 1. Surviving pairs are byte-identical to a non-prescreened
	// run. Prescreening runs in a single process only (Procs must be 1).
	Sketch SketchOptions

	// Transport, when non-nil, runs this process as ONE rank of a
	// multi-process BSP job over the given transport endpoint (e.g.
	// internal/bsp/tcptransport) instead of spawning Procs in-process
	// ranks: this process executes rank Transport.Rank() of
	// Transport.NProcs() == Procs, and every process of the job must be
	// started with identical options so the ranks agree on the grid and
	// batch protocol. Result matrices are assembled at rank 0 only; other
	// ranks return empty B/S/D. Autotune and Sketch are incompatible with
	// Transport (their run-time decisions would diverge across hosts).
	// Transport endpoints are single-run: build a new one per run. The
	// engine does not close the transport; the caller owns its lifecycle.
	Transport bsp.Transport

	// Autotune derives the run configuration — Procs, Replication,
	// BatchCount, TileRows, DenseThreshold — from the dataset's dimensions
	// and a sampled density estimate at run time, by minimising the BSP cost
	// model on a probed host profile (internal/costmodel.Tune). Fields the
	// caller set explicitly (SetExplicit, which the With* options and CLI
	// flags do automatically) are pinned; the tuner only fills the rest.
	// Each run's choices and the predictions behind them are reported in
	// RunStats.Tuning.
	Autotune bool

	// explicit records which fields were set deliberately rather than
	// inherited from DefaultOptions, so the autotuner knows what it may
	// change. A bit set here pins the corresponding field.
	explicit OptField
}

// SketchOptions configures the MinHash prescreening tier (Options.Sketch).
// The tier is enabled when Threshold > 0 or Size > 0; a positive Size
// without a positive Threshold is a validation error, because the gate
// needs a similarity threshold to prescreen against.
type SketchOptions struct {
	// Size is the bottom-k sketch size k. 0 resolves automatically: the
	// autotuner (or, without Autotune, costmodel.SketchSizeFor) sizes the
	// sketch from Threshold and Slack. An explicit positive value is
	// pinned, like any other explicitly set dimension.
	Size int
	// Threshold is the similarity threshold τ the run prescreens against:
	// the exact tier only sees pairs whose estimated Jaccard is at least
	// Threshold − Slack. It should match the threshold of the run's
	// Threshold sink (cliutil wires -threshold into both).
	Threshold float64
	// Slack is the recall margin s subtracted from Threshold before
	// gating, absorbing estimator noise so true ≥ τ pairs are not pruned
	// by an unlucky sketch. 0 resolves to DefaultSketchSlack; Slack and
	// Threshold together also drive the automatic sketch sizing.
	Slack float64
}

// Enabled reports whether the prescreening tier is configured for the
// run: any nonzero field counts, so a nonsensical combination (a size
// without a threshold, a negative threshold) surfaces as a Validate error
// instead of silently disabling the tier.
func (s SketchOptions) Enabled() bool { return s.Threshold != 0 || s.Size != 0 || s.Slack != 0 }

// DefaultSketchSlack is the recall margin used when SketchOptions.Slack
// is 0: generous enough that the default sketch sizing (3σ at the
// boundary) makes pruning a true ≥ τ pair a per-mille event.
const DefaultSketchSlack = 0.1

// OptField identifies tunable Options dimensions for explicit-override
// tracking; values combine as a bitset.
type OptField uint16

const (
	FieldProcs OptField = 1 << iota
	FieldReplication
	FieldBatchCount
	FieldTileRows
	FieldDenseThreshold
	FieldMaskBits
	FieldWorkers
	FieldSketchSize
)

// SetExplicit marks fields as deliberately chosen by the caller: the
// autotuner keeps their values and tunes around them. The With* options of
// the public package and the CLI flag binding call this for every field
// they set.
func (o *Options) SetExplicit(fields OptField) { o.explicit |= fields }

// IsExplicit reports whether every given field was marked explicit.
func (o Options) IsExplicit(fields OptField) bool { return o.explicit&fields == fields }

// DefaultTileRows is the single-process streaming tile height used when
// Options.TileRows is 0.
const DefaultTileRows = 256

// DefaultOptions returns options matching the paper's defaults: 64-bit
// masks, a single batch, one process, no replication, and shared-memory
// workers on every available CPU (Workers: 0).
func DefaultOptions() Options {
	return Options{BatchCount: 1, MaskBits: 64, Procs: 1, Replication: 1, Workers: 0}
}

// Validate checks option consistency.
func (o Options) Validate() error {
	if o.BatchCount <= 0 {
		return fmt.Errorf("core: BatchCount must be positive, got %d", o.BatchCount)
	}
	if o.MaskBits <= 0 || o.MaskBits > 64 {
		return fmt.Errorf("core: MaskBits must be in [1,64], got %d", o.MaskBits)
	}
	if o.Procs <= 0 {
		return fmt.Errorf("core: Procs must be positive, got %d", o.Procs)
	}
	if o.Replication <= 0 {
		return fmt.Errorf("core: Replication must be positive, got %d", o.Replication)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative (0 = all CPUs), got %d", o.Workers)
	}
	if o.TileRows < 0 {
		return fmt.Errorf("core: TileRows must be non-negative (0 = default %d), got %d", DefaultTileRows, o.TileRows)
	}
	if o.Sketch.Size < 0 {
		return fmt.Errorf("core: Sketch.Size must be non-negative (0 = auto), got %d", o.Sketch.Size)
	}
	if o.Sketch.Enabled() {
		if o.Sketch.Threshold <= 0 || o.Sketch.Threshold > 1 {
			return fmt.Errorf("core: sketch prescreening needs a similarity threshold in (0,1], got Sketch.Threshold %v", o.Sketch.Threshold)
		}
		if o.Sketch.Slack < 0 || o.Sketch.Slack > 1 {
			return fmt.Errorf("core: Sketch.Slack must be in [0,1] (0 = default %v), got %v", DefaultSketchSlack, o.Sketch.Slack)
		}
		if o.Procs != 1 {
			return fmt.Errorf("core: sketch prescreening runs in a single process only; Procs must be 1, got %d", o.Procs)
		}
	}
	if o.Transport != nil {
		if np := o.Transport.NProcs(); np != o.Procs {
			return fmt.Errorf("core: Transport spans %d ranks but Procs is %d; they must match", np, o.Procs)
		}
		if o.Autotune {
			return fmt.Errorf("core: Autotune is incompatible with a multi-process Transport (each host would tune a different configuration); pin the options explicitly")
		}
		if o.Sketch.Enabled() {
			return fmt.Errorf("core: sketch prescreening is incompatible with a multi-process Transport")
		}
	}
	return nil
}

// RunStats reports per-run measurements used by the benchmark harness.
type RunStats struct {
	// Batches is the number of batches processed.
	Batches int
	// BatchSeconds holds the wall-clock duration of each batch as observed
	// by rank 0 (the only process of a local run).
	BatchSeconds []float64
	// TotalSeconds is the end-to-end wall-clock duration.
	TotalSeconds float64
	// IndicatorNonzeros is nnz(A), summed over all batches.
	IndicatorNonzeros int64
	// ActiveRowsPerBatch is the number of nonzero rows each batch retained
	// after filtering (|f(l)| in Eq. 5).
	ActiveRowsPerBatch []int64
	// Comm holds the BSP communication statistics of a grid run; nil for a
	// single-process run, which starts no BSP runtime and communicates
	// nothing. Over a multi-process Transport the statistics are this
	// rank's local view.
	Comm *bsp.Stats

	// Transport holds the wire-level counters (dials, retries, bytes on
	// the wire, max superstep exchange latency) of a run over a remote
	// transport; nil for in-process runs.
	Transport *bsp.TransportStats

	// TilesEmitted counts the finalized tiles delivered to the run's sink —
	// the caller's for Engine.Stream, the engine's own collecting sink for
	// Engine.Similarity. 0 only where no output arrives: ranks other than 0
	// of a multi-process Transport run.
	TilesEmitted int
	// PeakTileWords is the largest single tile delivered to the sink, in
	// 64-bit words across its B, S and D blocks — the peak resident output
	// footprint of a memory-bounded streaming run.
	PeakTileWords int64
	// SinkSeconds is the wall-clock time spent inside the sink's Start,
	// Emit and Flush calls, so slow consumers are visible in the run stats.
	SinkSeconds float64

	// Ingest holds the ingestion-side counters of an out-of-core dataset
	// (loads, evictions, peak resident samples) captured at the end of the
	// run; nil when the dataset does not report them (e.g. fully in-memory
	// datasets).
	Ingest *IngestStats

	// Tuning records the autotuner's decisions and predictions for this run;
	// nil when Options.Autotune was off.
	Tuning *TuningReport

	// Sketch records what the MinHash prescreening tier did; nil when
	// Options.Sketch was off.
	Sketch *SketchStats
}

// SketchStats reports the MinHash prescreening tier of one run: how the
// gate was configured, how much exact work it skipped, and how likely it
// was to have pruned a true above-threshold pair.
type SketchStats struct {
	// Size is the resolved bottom-k sketch size.
	Size int
	// Threshold and Slack are the resolved gate parameters: pairs with
	// estimated Jaccard below Threshold − Slack were pruned.
	Threshold float64
	Slack     float64
	// PairsScreened is the number of distinct unordered pairs (diagonal
	// included) the estimator evaluated: n(n+1)/2.
	PairsScreened int64
	// PairsSurvived is how many of those reached the exact tier.
	PairsSurvived int64
	// EstimatedRecall is the modelled probability that a pair with exact
	// similarity exactly at Threshold survives the gate, from the normal
	// approximation of the bottom-k estimator (Φ(s·√(k/(τ(1−τ))))). Pairs
	// above τ survive with higher probability; this is the worst case.
	EstimatedRecall float64
	// SketchSeconds is the wall-clock time of the sketch pass plus the
	// pairwise estimation — the overhead the skipped exact work paid for.
	SketchSeconds float64
}

// TuningReport is the chosen-versus-predicted record of one autotuned run:
// which configuration the cost model picked, from which sampled dataset
// statistics and host profile, which dimensions the caller had pinned, and
// the measured packed-word occupancy the storage prediction can be checked
// against.
type TuningReport struct {
	// Machine names the host profile the model evaluated
	// (costmodel.Detect).
	Machine string
	// SampledColumns is how many sample columns the density estimate probed.
	SampledColumns int
	// Stats is the dataset description the tuner worked from; Stats.Density
	// is the probed estimate.
	Stats costmodel.DatasetStats
	// Plan holds the chosen configuration and the model predictions behind
	// it (per-batch seconds, row survival, packed word occupancy).
	Plan costmodel.Plan
	// Pinned lists the dimensions kept at caller-chosen values ("procs",
	// "replication", "batches", "tilerows", "densethreshold").
	Pinned []string
	// MeasuredOccupancy is the nonzero-word fraction of the first batch's
	// packed matrix (bitmat.Packed.WordOccupancy) — the measured counterpart
	// of Plan.PredictedOccupancy. Recorded by single-process runs; zero on
	// the grid, where the panels are packed inside the rank engines.
	MeasuredOccupancy float64
}

// IngestStats reports how an out-of-core dataset behaved during a run: how
// much loading the scan actually triggered and how tightly the eviction
// policy bounded the resident set. samplefile.DirDataset maintains these
// counters; any Dataset can expose its own by implementing IngestStatser.
type IngestStats struct {
	// Loads is the number of sample loads performed, including reloads of
	// previously evicted samples (so Loads − NumSamples measures the
	// re-read cost of the memory bound).
	Loads int64
	// Evictions is the number of samples dropped from memory to stay
	// within the resident budget.
	Evictions int64
	// Resident is the number of samples held in memory when the snapshot
	// was taken.
	Resident int
	// PeakResident is the largest number of samples simultaneously held in
	// memory — the figure a memory-bounded run asserts stays O(2 × batch).
	PeakResident int
	// LoadSeconds is the cumulative wall-clock time spent reading and
	// decoding sample files (summed across parallel loaders, so it can
	// exceed the elapsed time when loads overlap).
	LoadSeconds float64
}

// IngestStatser is implemented by datasets that track IngestStats; the
// engine snapshots them into RunStats.Ingest at the end of a run.
type IngestStatser interface {
	IngestStats() IngestStats
}

// Result is the output of a SimilarityAtScale run.
type Result struct {
	// N is the number of samples.
	N int
	// Names are the sample names, in column order.
	Names []string
	// Cardinalities holds |X_i| for every sample (â in Eq. 4).
	Cardinalities []int64
	// B is the intersection-cardinality matrix (nil when the run streamed
	// its output through a sink instead of gathering).
	B *sparse.Dense[int64]
	// S is the Jaccard similarity matrix (nil when streaming).
	S *sparse.Dense[float64]
	// D is the Jaccard distance matrix, D = 1 − S (nil when streaming).
	D *sparse.Dense[float64]
	// Stats holds run measurements.
	Stats RunStats
}

// Similarity returns S[i][j]; it panics if the matrices were not gathered.
func (r *Result) Similarity(i, j int) float64 {
	if r.S == nil {
		//gas:invariant documented accessor contract: gathered matrices exist unless the caller itself streamed; misuse, not input
		panic("core: similarity matrix was not gathered (streaming run)")
	}
	return r.S.At(i, j)
}

// Distance returns D[i][j]; it panics if the matrices were not gathered.
func (r *Result) Distance(i, j int) float64 {
	if r.D == nil {
		//gas:invariant documented accessor contract: gathered matrices exist unless the caller itself streamed; misuse, not input
		panic("core: distance matrix was not gathered (streaming run)")
	}
	return r.D.At(i, j)
}
