// Package core implements SimilarityAtScale, the communication-efficient
// distributed algorithm for all-pairs Jaccard similarity described in
// Sections III and IV of the paper. Data samples are sets of attribute
// indices (for GenomeAtScale, the k-mers present in a sequencing sample);
// the algorithm encodes them as a hypersparse indicator matrix A ∈ {0,1}^(m×n),
// processes A in row batches, filters empty rows with a distributed filter
// vector, compresses row segments into b-bit masks, and accumulates
// B = AᵀA with a popcount-AND semiring before deriving the similarity
// matrix S and distance matrix D = 1 − S.
//
// There is one pipeline: Engine.Stream (and Engine.Similarity, the same run
// with a collecting sink) drives the batch loop of batch.go — slice, filter,
// compact, pack, accumulate, then derive and emit tiles — against one of
// two targets (target.go). A single process without a transport sees every
// sample and accumulates locally; any other configuration is a rank of the
// processor grid in internal/dist over the BSP runtime. The choice follows
// from Procs and Transport alone, and the two produce byte-identical B, S
// and D. ExactJaccard, a brute-force set implementation, is the semantic
// oracle both are tested against.
package core

import (
	"fmt"
	"sort"
)

// Dataset is the abstract input of SimilarityAtScale: n data samples, each
// a set of attribute indices drawn from [0, NumAttributes). For genome
// comparisons a sample is the set of k-mer codes appearing in one
// sequencing experiment and NumAttributes is 4^k.
type Dataset interface {
	// NumSamples returns n, the number of data samples (columns of A).
	NumSamples() int
	// NumAttributes returns m, the size of the attribute universe (rows of A).
	NumAttributes() uint64
	// Sample returns the sorted, duplicate-free attribute indices of sample i.
	// The returned slice must not be modified.
	Sample(i int) []uint64
	// SampleName returns a human-readable identifier for sample i.
	SampleName(i int) string
}

// DatasetV2 is the error-propagating dataset access path used by the
// execution pipelines. Dataset.Sample has no way to report an I/O failure,
// so out-of-core implementations historically panicked on a corrupt file —
// killing a whole multi-million-sample run for one bad input. DatasetV2
// surfaces those failures as errors instead: the batch stage calls
// SampleErr, and Engine.Similarity / Engine.Stream return the error like
// any other run failure.
//
// Implementations that load lazily should also use LoadRange to overlap
// I/O with compute (see samplefile.DirDataset); in-memory implementations
// can treat it as a no-op.
//
// Implementations must support concurrent SampleErr calls: an in-process
// grid run reads samples from every rank at once. A wrapper that embeds
// a DatasetV2 and overrides Sample must override SampleErr (and LoadRange)
// too, or method promotion will route the pipelines around the override.
type DatasetV2 interface {
	Dataset
	// SampleErr returns the sorted, duplicate-free attribute indices of
	// sample i, or an error when the sample cannot be provided (unreadable
	// or corrupt backing file, value outside [0, NumAttributes), ...).
	// The returned slice must not be modified.
	SampleErr(i int) ([]uint64, error)
	// LoadRange eagerly makes samples [lo, hi) available — a prefetch hint
	// that lets loads proceed in parallel with compute. It returns the
	// first load error encountered; implementations with nothing to load
	// return nil.
	LoadRange(lo, hi int) error
}

// EvictingDataset is an optional DatasetV2 extension marking datasets
// that may evict and reload sample storage during a run (out-of-core
// loaders). The batch stage copies the in-range values out of such
// datasets instead of keeping zero-copy subslices: a subslice pins the
// sample's whole backing array until the batch's pack stage completes,
// which would keep every sample reachable at once and defeat the
// eviction bound in actual bytes.
type EvictingDataset interface {
	// EvictsSamples reports whether sample slices may be dropped from
	// memory during a run.
	EvictsSamples() bool
}

// RangePrefetcher is an optional DatasetV2 extension: PrefetchRange
// schedules background loads of samples [lo, hi) and returns immediately,
// without waiting for them — the non-blocking form of LoadRange. The
// engine uses it to begin the next batch's leading loads while the
// current batch's Gram accumulation computes; load errors are not lost,
// they re-surface from SampleErr when the scan reaches the sample.
type RangePrefetcher interface {
	PrefetchRange(lo, hi int)
}

// AsV2 adapts any Dataset to the error-returning DatasetV2 access path.
// A dataset that already implements DatasetV2 is returned unchanged;
// otherwise a wrapper is returned whose SampleErr converts a panicking
// Sample (the only failure channel the legacy interface has) into an
// ordinary error, and whose LoadRange is a no-op. The pipelines route every
// sample access through this adapter, so no Dataset implementation can
// take down a run by panicking during a load.
func AsV2(ds Dataset) DatasetV2 {
	if v2, ok := ds.(DatasetV2); ok {
		return v2
	}
	return legacyV2{ds}
}

// legacyV2 adapts a panic-on-error Dataset to DatasetV2.
type legacyV2 struct {
	Dataset
}

func (a legacyV2) SampleErr(i int) (vals []uint64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: sample %d: %v", i, rec)
		}
	}()
	return a.Dataset.Sample(i), nil
}

func (a legacyV2) LoadRange(lo, hi int) error { return nil }

// InMemoryDataset is the simplest Dataset: all samples held in memory.
type InMemoryDataset struct {
	names      []string
	samples    [][]uint64
	attributes uint64
}

// NewInMemoryDataset builds a dataset from raw (possibly unsorted,
// possibly duplicated) attribute lists. Attribute values must be smaller
// than numAttributes.
func NewInMemoryDataset(names []string, samples [][]uint64, numAttributes uint64) (*InMemoryDataset, error) {
	if len(names) != 0 && len(names) != len(samples) {
		return nil, fmt.Errorf("core: %d names for %d samples", len(names), len(samples))
	}
	ds := &InMemoryDataset{attributes: numAttributes}
	for i, s := range samples {
		cleaned := dedupSorted(s)
		if len(cleaned) > 0 && cleaned[len(cleaned)-1] >= numAttributes {
			return nil, fmt.Errorf("core: sample %d contains attribute %d ≥ m=%d", i, cleaned[len(cleaned)-1], numAttributes)
		}
		ds.samples = append(ds.samples, cleaned)
		if len(names) != 0 {
			ds.names = append(ds.names, names[i])
		} else {
			ds.names = append(ds.names, fmt.Sprintf("sample-%d", i))
		}
	}
	return ds, nil
}

// MustInMemoryDataset is NewInMemoryDataset that panics on error; intended
// for tests and examples with known-good inputs.
func MustInMemoryDataset(names []string, samples [][]uint64, numAttributes uint64) *InMemoryDataset {
	ds, err := NewInMemoryDataset(names, samples, numAttributes)
	if err != nil {
		//gas:invariant documented Must helper for tests and examples with known-good inputs; NewInMemoryDataset is the checked path
		panic(err)
	}
	return ds
}

// NumSamples implements Dataset.
func (d *InMemoryDataset) NumSamples() int { return len(d.samples) }

// NumAttributes implements Dataset.
func (d *InMemoryDataset) NumAttributes() uint64 { return d.attributes }

// Sample implements Dataset.
func (d *InMemoryDataset) Sample(i int) []uint64 { return d.samples[i] }

// SampleName implements Dataset.
func (d *InMemoryDataset) SampleName(i int) string { return d.names[i] }

// TotalNonzeros returns the total number of (attribute, sample) pairs, i.e.
// the number of nonzeros of the indicator matrix A.
func TotalNonzeros(ds Dataset) int64 {
	var total int64
	for i := 0; i < ds.NumSamples(); i++ {
		total += int64(len(ds.Sample(i)))
	}
	return total
}

// Density returns nnz(A) / (m·n).
func Density(ds Dataset) float64 {
	n := ds.NumSamples()
	m := ds.NumAttributes()
	if n == 0 || m == 0 {
		return 0
	}
	return float64(TotalNonzeros(ds)) / (float64(m) * float64(n))
}

// dedupSorted sorts a copy of xs and removes duplicates.
func dedupSorted(xs []uint64) []uint64 {
	if len(xs) == 0 {
		return nil
	}
	out := append([]uint64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// rangeSlice returns the sub-slice of a sorted sample whose values fall in
// [lo, hi); this is how a batch extracts its share of each sample without
// materialising the full indicator matrix.
func rangeSlice(sorted []uint64, lo, hi uint64) []uint64 {
	start := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
	end := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= hi })
	return sorted[start:end]
}

// batchBounds returns the attribute range [lo, hi) of batch l when the m
// attributes are split into batchCount equal ranges (Eq. 3). The last batch
// absorbs the remainder.
func batchBounds(m uint64, batchCount, l int) (lo, hi uint64) {
	per := m / uint64(batchCount)
	if per == 0 {
		per = 1
	}
	lo = uint64(l) * per
	if lo > m {
		lo = m
	}
	hi = lo + per
	if l == batchCount-1 || hi > m {
		hi = m
	}
	return lo, hi
}
