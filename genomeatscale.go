// Package genomeatscale is the public façade of this Go reproduction of
// "Communication-Efficient Jaccard Similarity for High-Performance
// Distributed Genome Comparisons" (Besta et al., IPDPS 2020).
//
// It re-exports the entry points a downstream user needs:
//
//   - building datasets (from k-mer sets, graphs, documents or synthetic
//     generators in the internal packages),
//   - running SimilarityAtScale in one process or across virtual BSP ranks
//     through a reusable, cancellable Engine (NewEngine) that gathers the
//     result (Engine.Similarity) or streams it tile by tile into a
//     TileSink (CollectFull, TopK, Threshold, or a custom sink),
//   - computing exact pairwise Jaccard values for verification.
//
// The full machinery (BSP runtime, processor grids, bitmask compression,
// cost model, GenomeAtScale preprocessing) lives in the internal packages;
// see README.md for the architecture overview and examples/ for runnable
// programs.
package genomeatscale

import "genomeatscale/internal/core"

// Dataset is the abstract input of SimilarityAtScale: n samples, each a set
// of attribute indices in [0, NumAttributes).
type Dataset = core.Dataset

// InMemoryDataset is the simplest Dataset implementation.
type InMemoryDataset = core.InMemoryDataset

// Options configures a SimilarityAtScale run (batch count, bitmask width,
// virtual rank count, replication factor, shared-memory worker count).
type Options = core.Options

// Result holds the similarity matrix S, distance matrix D = 1 − S,
// intersection cardinalities B, per-sample cardinalities, and run
// statistics (including exact communication volumes for distributed runs).
type Result = core.Result

// TuningReport records what an autotuned run (WithAutotune) decided and
// why: the host profile, the sampled dataset statistics, the chosen plan
// with the cost model's predictions, and which dimensions the caller had
// pinned. Found on Result.Stats.Tuning.
type TuningReport = core.TuningReport

// SketchStats records what the MinHash prescreening tier
// (WithSketchPrescreen) did: the resolved gate parameters, how many pairs
// were screened and how many survived to the exact tier, and the modelled
// worst-case recall at the threshold. Found on Result.Stats.Sketch.
type SketchStats = core.SketchStats

// NewDataset builds a dataset from raw attribute lists; values are sorted
// and de-duplicated, names may be nil.
func NewDataset(names []string, samples [][]uint64, numAttributes uint64) (*InMemoryDataset, error) {
	return core.NewInMemoryDataset(names, samples, numAttributes)
}

// DefaultOptions returns the paper's default configuration: one batch,
// 64-bit masks, a single process, no replication.
func DefaultOptions() Options { return core.DefaultOptions() }

// ExactJaccard computes the exact pairwise Jaccard similarity of two sorted
// attribute sets; it is the brute-force reference the algebraic paths are
// validated against.
func ExactJaccard(x, y []uint64) float64 { return core.JaccardPair(x, y) }

// JaccardDistance returns 1 − ExactJaccard(x, y).
func JaccardDistance(x, y []uint64) float64 { return core.JaccardDistancePair(x, y) }
