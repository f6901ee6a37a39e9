package genomeatscale

import (
	"genomeatscale/internal/core"
	"genomeatscale/internal/samplefile"
)

// DatasetV2 is the error-propagating dataset access path: SampleErr
// surfaces load failures (unreadable or corrupt backing files, values
// outside the declared universe) as errors the engine returns like any
// other run failure, and LoadRange lets out-of-core implementations
// overlap loads with compute. Every Dataset handed to an engine is adapted
// to this path (see AsDatasetV2), so a panicking legacy Sample can no
// longer take down a run.
type DatasetV2 = core.DatasetV2

// AsDatasetV2 adapts any Dataset to the error-returning DatasetV2 access
// path; datasets that already implement it are returned unchanged, and
// legacy datasets get a wrapper that converts a panicking Sample into an
// ordinary error.
func AsDatasetV2(ds Dataset) DatasetV2 { return core.AsV2(ds) }

// IngestStats reports how an out-of-core dataset behaved during a run —
// loads (including reloads after eviction), evictions, the peak number of
// simultaneously resident samples, bytes read and values decoded. Runs
// over such datasets carry a snapshot in Result.Stats.Ingest.
type IngestStats = core.IngestStats

// SampleDirOptions configures OpenSampleDir: the file glob, the read-ahead
// window (Prefetch), the background-load parallelism, and the resident-set
// bound (MaxResident, default 2×Prefetch when prefetching).
type SampleDirOptions = samplefile.DirOptions

// SampleDir is a DatasetV2 backed by a directory of sample files, one file
// per sample (text or the compact binary encoding, auto-detected), loaded
// lazily and in parallel with single-flight deduplication. With a prefetch
// window it reads the next block of files while the current block
// computes and evicts least-recently-used samples, so arbitrarily large
// collections run in bounded memory. Its cache entries hold the files'
// bytes in the binary encoding, and each batch decodes only its value
// range, resuming where the sample's previous batch stopped. A corrupt
// header fails at load, a corrupt body in the batch that reaches it.
type SampleDir = samplefile.DirDataset

// OpenSampleDir opens a directory of sample files (see samplefile's
// WriteText/WriteBinary for the formats) as an out-of-core dataset over
// the attribute universe [0, numAttributes).
func OpenSampleDir(dir string, numAttributes uint64, opts SampleDirOptions) (*SampleDir, error) {
	return samplefile.OpenDirOptions(dir, numAttributes, opts)
}
