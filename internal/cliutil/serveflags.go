package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"genomeatscale/internal/core"
	"genomeatscale/internal/index"
)

// IndexFlags binds the persistent-index emission flags shared by the batch
// CLIs: after a run, the dataset can be packed into an on-disk index that
// cmd/similarityd serves without recomputation.
type IndexFlags struct {
	Out     *string
	SketchK *int
}

// BindIndex registers -index-out and -index-sketch-k on fs.
func BindIndex(fs *flag.FlagSet) *IndexFlags {
	return &IndexFlags{
		Out:     fs.String("index-out", "", "write a persistent similarity index (served by similarityd) to this file"),
		SketchK: fs.Int("index-sketch-k", 0, "store a bottom-k MinHash sketch of each sample in the index (0 = none); lets thresholded queries gate popcounts"),
	}
}

// Active reports whether an index was requested.
func (f *IndexFlags) Active() bool { return *f.Out != "" }

// Write builds the index from ds — reusing the run's packing parameters
// (mask bits, dense-threshold spec) so served queries hit the same kernels
// the batch run used — and persists it. Samples are read through
// SampleErr; the first load failure fails the build with an error naming
// the sample, and no index is written. A no-op when -index-out is unset.
func (f *IndexFlags) Write(out io.Writer, ds core.Dataset, opts core.Options) error {
	if !f.Active() {
		return nil
	}
	src := &loadingSource{Dataset: ds}
	c, err := index.Build(src, index.Options{
		B:              opts.MaskBits,
		DenseThreshold: opts.DenseThreshold,
		SketchK:        *f.SketchK,
	})
	if src.err != nil {
		err = src.err
	}
	if err != nil {
		return err
	}
	if err := c.WriteFile(*f.Out); err != nil {
		return err
	}
	fmt.Fprintf(out, "index written to %s (%d samples, %d words packed, sketch k=%d)\n",
		*f.Out, c.Samples(), c.MemoryWords(), *f.SketchK)
	return nil
}

// loadingSource reads a dataset as an index.Source, which has no error
// channel: a sample that fails to load reads as empty and the first
// failure is kept in err.
type loadingSource struct {
	core.Dataset
	err error
}

func (s *loadingSource) Sample(i int) []uint64 {
	vals, err := s.SampleErr(i)
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("index: loading sample %d (%s): %w", i, s.SampleName(i), err)
	}
	return vals
}

// BindStatsJSON registers the -stats-json flag: a machine-readable RunStats
// dump ("-" = stdout) alongside the human-readable report.
func BindStatsJSON(fs *flag.FlagSet) *string {
	return fs.String("stats-json", "", `write the run's statistics (RunStats incl. tuning/sketch/transport/ingest) as JSON to this file ("-" = stdout)`)
}

// WriteStatsJSONFlag honours a -stats-json value: a no-op when empty,
// stdout when "-", a file otherwise. The encoding is WriteStatsJSON — the
// same one similarityd re-reads (-build-stats) and re-exposes through
// /metrics and /v1/corpus.
func WriteStatsJSONFlag(out io.Writer, path string, stats *core.RunStats) error {
	switch path {
	case "":
		return nil
	case "-":
		return WriteStatsJSON(out, stats)
	}
	fl, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteStatsJSON(fl, stats); err != nil {
		return errors.Join(err, fl.Close())
	}
	if err := fl.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "run statistics written to %s\n", path)
	return nil
}
