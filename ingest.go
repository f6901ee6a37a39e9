package genomeatscale

import (
	"genomeatscale/internal/core"
	"genomeatscale/internal/samplefile"
)

// IngestStats reports how an out-of-core dataset behaved during a run —
// loads (including reloads after eviction), evictions, the peak number of
// simultaneously resident samples, bytes read and values decoded. Runs
// over such datasets carry a snapshot in Result.Stats.Ingest.
type IngestStats = core.IngestStats

// SampleDirOptions configures OpenSampleDir: the file glob, the read-ahead
// window (Prefetch), the background-load parallelism, and the resident-set
// bound (MaxResident, default 2×Prefetch when prefetching).
type SampleDirOptions = samplefile.DirOptions

// SampleDir is a Dataset backed by a directory of sample files, one file
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
