package core

import "genomeatscale/internal/sparse"

// JaccardPair computes the exact Jaccard similarity of two sorted,
// duplicate-free attribute lists. Two empty sets have similarity 0 (the
// J(∅, ∅) = 0 convention shared with dist.Jaccard and the MinHash
// estimator): an empty sample shares nothing with anything, so it must
// not rank as a perfect match in thresholded or top-k runs.
func JaccardPair(x, y []uint64) float64 {
	if len(x) == 0 && len(y) == 0 {
		return 0
	}
	inter := intersectionSize(x, y)
	union := len(x) + len(y) - inter
	return float64(inter) / float64(union)
}

// JaccardDistancePair returns 1 − JaccardPair(x, y).
func JaccardDistancePair(x, y []uint64) float64 { return 1 - JaccardPair(x, y) }

// intersectionSize merges two sorted lists and counts common elements.
func intersectionSize(x, y []uint64) int {
	i, j, count := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// ExactJaccard computes the full similarity matrix by direct set
// intersection, without the algebraic machinery. It is the semantic oracle
// the other paths are verified against, and is practical only for small n.
func ExactJaccard(ds *InMemoryDataset) *sparse.Dense[float64] {
	n := ds.NumSamples()
	out := sparse.MustDense[float64](n, n)
	for i := 0; i < n; i++ {
		xi := ds.Sample(i)
		// The diagonal is computed, not assumed: an empty sample's
		// self-similarity is 0 under the shared J(∅, ∅) = 0 convention.
		out.Set(i, i, JaccardPair(xi, xi))
		for j := i + 1; j < n; j++ {
			s := JaccardPair(xi, ds.Sample(j))
			out.Set(i, j, s)
			out.Set(j, i, s)
		}
	}
	return out
}
