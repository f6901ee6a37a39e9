// Package cliutil holds the command-line plumbing shared by the cmd/
// tools, so the engine-configuration flags are defined once — with one
// canonical help text — instead of being copy-pasted (and drifting)
// between commands, and so the matrix printing/writing helpers live in one
// place.
package cliutil

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	genomeatscale "genomeatscale"
	"genomeatscale/internal/core"
	"genomeatscale/internal/output"
	"genomeatscale/internal/samplefile"
	"genomeatscale/internal/sparse"
)

// NewFlagSet returns the flag set every CLI uses: ContinueOnError, so run
// functions surface parse failures as ordinary errors.
func NewFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

// ComputeFlags binds the engine-configuration flags shared by the compute
// CLIs (genomeatscale and similarityatscale): the execution layout, the
// compression parameters, and the streaming reductions.
type ComputeFlags struct {
	Procs          *int
	Batches        *int
	MaskBits       *int
	Replication    *int
	Workers        *int
	DenseThreshold *int
	TileRows       *int
	TopK           *int
	Threshold      *float64
	SketchK        *int
	SketchSlack    *float64
	Auto           *bool

	fs *flag.FlagSet
}

// BindCompute registers the shared flags on fs and returns their handles.
func BindCompute(fs *flag.FlagSet) *ComputeFlags {
	return &ComputeFlags{
		Procs:          fs.Int("procs", 1, "number of virtual BSP ranks"),
		Batches:        fs.Int("batches", 1, "number of row batches of the indicator matrix"),
		MaskBits:       fs.Int("mask-bits", 64, "bitmask compression width b (1..64)"),
		Replication:    fs.Int("replication", 1, "processor-grid replication factor c"),
		Workers:        fs.Int("workers", 0, "shared-memory worker goroutines per process for the Gram kernel, packing and finalization (0 = one per CPU, 1 = serial)"),
		DenseThreshold: fs.Int("dense-threshold", 0, "stored-word count at which a packed column is held as a dense slab (0 = auto ≈ ¼ of the word rows, negative = always sparse)"),
		TileRows:       fs.Int("tile-rows", 0, "row-band height of streamed output tiles on a local (-procs 1) run (0 = default)"),
		TopK:           fs.Int("top-k", 0, "stream only the k most similar sample pairs instead of gathering the full matrix (0 = off)"),
		Threshold:      fs.Float64("threshold", -1, "stream only the sample pairs with similarity at or above this value instead of gathering the full matrix (negative = off)"),
		SketchK:        fs.Int("sketch-k", 0, "MinHash-prescreen -threshold runs with bottom-k sketches of this size: pairs estimated below threshold-slack skip the exact kernel (0 = off, negative = auto-sized from threshold and slack)"),
		SketchSlack:    fs.Float64("sketch-slack", core.DefaultSketchSlack, "recall margin subtracted from -threshold before the sketch prescreen gate"),
		Auto:           fs.Bool("auto", false, "autotune the run configuration from the dataset and host via the BSP cost model; engine flags given explicitly are pinned"),
		fs:             fs,
	}
}

// explicitField maps each engine-configuration flag name to the Options
// field it pins under -auto.
var explicitField = map[string]core.OptField{
	"procs":           core.FieldProcs,
	"batches":         core.FieldBatchCount,
	"mask-bits":       core.FieldMaskBits,
	"replication":     core.FieldReplication,
	"workers":         core.FieldWorkers,
	"dense-threshold": core.FieldDenseThreshold,
	"tile-rows":       core.FieldTileRows,
}

// Options assembles a core.Options from the bound flag values. Flags the
// user passed on the command line (as opposed to defaults) are marked
// explicit, so -auto plans around them instead of overriding them.
func (f *ComputeFlags) Options() core.Options {
	o := core.Options{
		BatchCount:     *f.Batches,
		MaskBits:       *f.MaskBits,
		Procs:          *f.Procs,
		Replication:    *f.Replication,
		Workers:        *f.Workers,
		DenseThreshold: *f.DenseThreshold,
		TileRows:       *f.TileRows,
		Autotune:       *f.Auto,
	}
	if *f.SketchK != 0 {
		// -sketch-k prescreens against the run's -threshold; without one
		// the negative default lands in Sketch.Threshold and surfaces as a
		// core.Validate error. A negative -sketch-k enables prescreening
		// with the auto-derived sketch size.
		o.Sketch = core.SketchOptions{Threshold: *f.Threshold, Slack: *f.SketchSlack}
		if *f.SketchK > 0 {
			o.Sketch.Size = *f.SketchK
			o.SetExplicit(core.FieldSketchSize)
		}
	}
	f.fs.Visit(func(fl *flag.Flag) {
		if field, ok := explicitField[fl.Name]; ok {
			o.SetExplicit(field)
		}
	})
	return o
}

// PrintTuning reports the decisions of an autotuned run; it prints nothing
// when the run carried no tuning report (autotuning off).
func PrintTuning(w io.Writer, t *core.TuningReport) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "autotune: %s; sampled %d columns (density %.3g); plan procs=%d replication=%d batches=%d tile-rows=%d dense-threshold=%d (predicted %.3gs, occupancy %.3g",
		t.Machine, t.SampledColumns, t.Stats.Density,
		t.Plan.Procs, t.Plan.Replication, t.Plan.Batches, t.Plan.TileRows, t.Plan.DenseThreshold,
		t.Plan.PredictedSeconds, t.Plan.PredictedOccupancy)
	if t.MeasuredOccupancy > 0 {
		fmt.Fprintf(w, ", measured %.3g", t.MeasuredOccupancy)
	}
	fmt.Fprint(w, ")")
	if len(t.Pinned) > 0 {
		fmt.Fprintf(w, "; pinned: %s", strings.Join(t.Pinned, ", "))
	}
	fmt.Fprintln(w)
}

// PrintSketch reports what the MinHash prescreening tier did; it prints
// nothing when the run carried no sketch stats (prescreening off).
func PrintSketch(w io.Writer, s *core.SketchStats) {
	if s == nil {
		return
	}
	pruned := float64(0)
	if s.PairsScreened > 0 {
		pruned = 100 * float64(s.PairsScreened-s.PairsSurvived) / float64(s.PairsScreened)
	}
	fmt.Fprintf(w, "prescreen: k=%d at threshold %.3g (slack %.3g); %d of %d pairs survived (%.1f%% pruned), estimated recall %.4f (%.3fs sketching)\n",
		s.Size, s.Threshold, s.Slack, s.PairsSurvived, s.PairsScreened, pruned, s.EstimatedRecall, s.SketchSeconds)
}

// Engine builds a reusable engine from the bound flag values.
func (f *ComputeFlags) Engine() (*core.Engine, error) {
	return core.NewEngine(f.Options())
}

// Streaming reports whether -top-k or -threshold requested a streaming
// reduction instead of the gathered matrix.
func (f *ComputeFlags) Streaming() bool { return *f.TopK > 0 || *f.Threshold >= 0 }

// IngestFlags binds the out-of-core ingestion flags: instead of listing
// sample files on the command line (all loaded up front), -dir scans a
// directory lazily through samplefile.DirDataset with parallel prefetch
// and bounded resident memory.
type IngestFlags struct {
	Dir         *string
	Pattern     *string
	Prefetch    *int
	LoadWorkers *int
	MaxResident *int
}

// BindIngest registers the out-of-core ingestion flags on fs.
func BindIngest(fs *flag.FlagSet) *IngestFlags {
	return &IngestFlags{
		Dir:         fs.String("dir", "", "read sample files out-of-core from this directory instead of listing them as arguments"),
		Pattern:     fs.String("pattern", "*", "glob the sample files under -dir must match"),
		Prefetch:    fs.Int("prefetch", 64, "out-of-core read-ahead window in samples; the next window loads while the current one computes (0 = cache every loaded sample, no eviction)"),
		LoadWorkers: fs.Int("load-workers", 0, "concurrent background sample loads (0 = auto)"),
		MaxResident: fs.Int("max-resident", 0, "bound on simultaneously resident samples (0 = 2x the prefetch window when prefetching)"),
	}
}

// Active reports whether -dir selected out-of-core ingestion.
func (f *IngestFlags) Active() bool { return *f.Dir != "" }

// Open opens the configured directory as an out-of-core dataset over the
// attribute universe [0, numAttributes).
func (f *IngestFlags) Open(numAttributes uint64) (*samplefile.DirDataset, error) {
	return samplefile.OpenDirOptions(*f.Dir, numAttributes, samplefile.DirOptions{
		Pattern:     *f.Pattern,
		Prefetch:    *f.Prefetch,
		Parallelism: *f.LoadWorkers,
		MaxResident: *f.MaxResident,
	})
}

// PrintIngest reports the ingestion counters of an out-of-core run; it
// prints nothing when the run carried none (in-memory datasets).
func PrintIngest(w io.Writer, s *core.IngestStats) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "ingestion: %d sample loads (%.3fs I/O), %d evictions, peak %d samples resident\n",
		s.Loads, s.LoadSeconds, s.Evictions, s.PeakResident)
}

// StreamPairs runs the engine in streaming mode according to the -top-k /
// -threshold flags and returns the run result plus the retained pairs
// (named, sorted by descending similarity) ready for output.WritePairs.
// With both flags set, the top-k pairs are additionally filtered by the
// threshold.
func (f *ComputeFlags) StreamPairs(ctx context.Context, ds genomeatscale.Dataset) (*genomeatscale.Result, []output.Pair, error) {
	e, err := f.Engine()
	if err != nil {
		return nil, nil, err
	}
	var res *genomeatscale.Result
	var raw []genomeatscale.Pair
	switch {
	case *f.TopK > 0:
		sink := genomeatscale.TopK(*f.TopK)
		if res, err = e.Stream(ctx, ds, sink); err != nil {
			return nil, nil, err
		}
		raw = sink.Pairs()
		if tau := *f.Threshold; tau >= 0 {
			kept := raw[:0]
			for _, p := range raw {
				if p.Similarity >= tau {
					kept = append(kept, p)
				}
			}
			raw = kept
		}
	case *f.Threshold >= 0:
		sink := genomeatscale.Threshold(*f.Threshold)
		if res, err = e.Stream(ctx, ds, sink); err != nil {
			return nil, nil, err
		}
		raw = sink.Pairs()
	default:
		return nil, nil, fmt.Errorf("cliutil: StreamPairs without -top-k or -threshold")
	}
	pairs := make([]output.Pair, len(raw))
	for i, p := range raw {
		pairs[i] = output.Pair{
			I: p.I, J: p.J,
			NameI: res.Names[p.I], NameJ: res.Names[p.J],
			Similarity: p.Similarity,
		}
	}
	return res, pairs, nil
}

// WriteMatrixTSVFile writes a labelled square matrix as TSV to path.
func WriteMatrixTSVFile(path string, names []string, m *sparse.Dense[float64]) (err error) {
	fl, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := fl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return output.WriteTSV(fl, names, m)
}

// PrintMatrix pretty-prints a labelled square matrix with truncated row
// and column headers.
func PrintMatrix(w io.Writer, names []string, m *sparse.Dense[float64]) {
	fmt.Fprintf(w, "\n%-20s", "")
	for _, n := range names {
		fmt.Fprintf(w, " %10s", Truncate(n, 10))
	}
	fmt.Fprintln(w)
	for i, n := range names {
		fmt.Fprintf(w, "%-20s", Truncate(n, 20))
		for j := range names {
			fmt.Fprintf(w, " %10.4f", m.At(i, j))
		}
		fmt.Fprintln(w)
	}
}

// Truncate shortens s to at most n bytes.
func Truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// WriteStatsJSON encodes a run's statistics as indented, machine-readable
// JSON — the single RunStats encoder shared by the batch CLIs' -stats-json
// flag and by similarityd, whose /metrics and /v1/corpus endpoints re-emit
// the figures a build recorded. A trailing newline terminates the object
// so the output concatenates cleanly into log streams.
func WriteStatsJSON(w io.Writer, stats *core.RunStats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(stats)
}

// ReadStatsJSON decodes RunStats previously written by WriteStatsJSON.
func ReadStatsJSON(r io.Reader) (*core.RunStats, error) {
	var stats core.RunStats
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&stats); err != nil {
		return nil, fmt.Errorf("cliutil: decoding run stats: %w", err)
	}
	return &stats, nil
}
