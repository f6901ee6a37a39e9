package genome

import (
	"fmt"
	"slices"

	"genomeatscale/internal/core"
)

// Sample is a sequencing sample represented — as in the paper — by the set
// of (canonical) k-mers present in its reads after noise filtering.
type Sample struct {
	// Name identifies the sample (e.g. the SRA accession).
	Name string
	// K is the k-mer length used to build the sample.
	K int
	// Kmers are the sorted, duplicate-free packed k-mer codes.
	Kmers []uint64
}

// Cardinality returns |X_i|, the number of distinct k-mers.
func (s Sample) Cardinality() int { return len(s.Kmers) }

// SampleOptions configures construction of a Sample from sequences.
type SampleOptions struct {
	ExtractorOptions
	// MinCount drops k-mers occurring fewer than MinCount times (noise
	// filtering); 0 or 1 keeps everything.
	MinCount int
}

// BuildSample constructs a Sample from raw sequences (e.g. the reads or
// contigs of one sequencing experiment).
func BuildSample(name string, seqs [][]byte, opts SampleOptions) (Sample, error) {
	if err := opts.ExtractorOptions.Validate(); err != nil {
		return Sample{}, err
	}
	counts, err := CountKmers(seqs, opts.ExtractorOptions)
	if err != nil {
		return Sample{}, err
	}
	min := opts.MinCount
	if min < 1 {
		min = 1
	}
	kmers := FilterCounts(counts, min)
	slices.Sort(kmers)
	return Sample{Name: name, K: opts.K, Kmers: kmers}, nil
}

// BuildSampleFromRecords constructs a Sample from FASTA records.
func BuildSampleFromRecords(name string, records []Record, opts SampleOptions) (Sample, error) {
	seqs := make([][]byte, len(records))
	for i, r := range records {
		seqs[i] = r.Seq
	}
	return BuildSample(name, seqs, opts)
}

// BuildDataset assembles SimilarityAtScale input from samples that all use
// the same k. The attribute universe is the full k-mer space 4^k, which is
// what makes the indicator matrix hypersparse (Section III-B).
func BuildDataset(samples []Sample) (*core.InMemoryDataset, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("genome: no samples")
	}
	k := samples[0].K
	names := make([]string, len(samples))
	values := make([][]uint64, len(samples))
	for i, s := range samples {
		if s.K != k {
			return nil, fmt.Errorf("genome: sample %q uses k=%d, expected %d", s.Name, s.K, k)
		}
		names[i] = s.Name
		values[i] = s.Kmers
	}
	return core.NewInMemoryDataset(names, values, KmerSpace(k))
}
