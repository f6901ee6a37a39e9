// Package core implements SimilarityAtScale, the communication-efficient
// distributed algorithm for all-pairs Jaccard similarity described in
// Sections III and IV of the paper. Data samples are sets of attribute
// indices (for GenomeAtScale, the k-mers present in a sequencing sample);
// the algorithm encodes them as a hypersparse indicator matrix A ∈ {0,1}^(m×n),
// processes A in row batches, keeps the rows two samples of a batch share
// with a distributed filter vector, compresses row segments into b-bit
// masks, and accumulates B = AᵀA with a popcount-AND semiring before
// deriving the similarity matrix S and distance matrix D = 1 − S.
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
//
// The batch stage reads each sample one batch range at a time through
// SampleRange (Listing 1, Eq. 3); the MinHash prescreen and the autotune
// probe read whole samples through SampleErr. A failure to provide a
// sample — an unreadable or corrupt backing file, a value outside
// [0, NumAttributes) — is an error the engine returns like any other run
// failure. Implementations must support concurrent calls: an in-process
// grid run reads samples from every rank at once. A wrapper that overrides
// one read must override the other as well, or the reads it does not
// override go around it.
type Dataset interface {
	// NumSamples returns n, the number of data samples (columns of A).
	NumSamples() int
	// NumAttributes returns m, the size of the attribute universe (rows of A).
	NumAttributes() uint64
	// SampleName returns a human-readable identifier for sample i.
	SampleName(i int) string
	// SampleErr returns the sorted, duplicate-free attribute indices of
	// sample i. The returned slice must not be modified.
	SampleErr(i int) ([]uint64, error)
	// SampleRange returns the values of sample i in [lo, hi), sorted and
	// duplicate-free; it returns no values when lo ≥ hi. The returned
	// slice must not be modified.
	SampleRange(i int, lo, hi uint64) ([]uint64, error)
}

// RangePrefetcher is an optional Dataset extension: PrefetchRange
// schedules background loads of samples [lo, hi) and returns immediately,
// without waiting for them. The engine uses it to begin the next batch's
// leading loads while the current batch's Gram accumulation computes;
// load errors are not lost, they re-surface from the next read of the
// sample.
type RangePrefetcher interface {
	PrefetchRange(lo, hi int)
}

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

// Sample returns sample i; the returned slice must not be modified. It
// makes an InMemoryDataset an index.Source.
func (d *InMemoryDataset) Sample(i int) []uint64 { return d.samples[i] }

// SampleErr implements Dataset; an in-memory sample cannot fail.
func (d *InMemoryDataset) SampleErr(i int) ([]uint64, error) { return d.samples[i], nil }

// SampleRange implements Dataset with a subslice of the sample, no copy.
func (d *InMemoryDataset) SampleRange(i int, lo, hi uint64) ([]uint64, error) {
	if lo >= hi {
		return nil, nil
	}
	return rangeSlice(d.samples[i], lo, hi), nil
}

// SampleName implements Dataset.
func (d *InMemoryDataset) SampleName(i int) string { return d.names[i] }

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
