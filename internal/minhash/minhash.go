// Package minhash implements a bottom-k MinHash sketch, the
// locality-sensitive-hashing baseline the paper positions itself against
// (Section I: MinHash "often lead[s] to inaccurate
// approximations of d_J for highly similar pairs ... and tend[s] to be
// ineffective for computation of a distance between highly dissimilar sets
// unless very large sketch sizes are used"). The accuracy benchmarks use
// this package to reproduce that comparison against the exact Jaccard
// values computed by SimilarityAtScale.
package minhash

import (
	"fmt"
	"math"
	"slices"
)

// Sketch is a bottom-k MinHash sketch: the k smallest hash values of a set.
type Sketch struct {
	// Size is the requested sketch size (number of retained hashes).
	Size int
	// Hashes holds the smallest Size hash values, sorted ascending. Sets
	// with fewer than Size elements yield shorter sketches.
	Hashes []uint64
}

// hash64 is a fixed 64-bit mixer (splitmix64 finaliser) applied to each
// element; using a deterministic hash keeps sketches comparable across
// runs, as Mash does with a fixed seed.
func hash64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// New builds a bottom-k sketch of the given attribute set. hash64 is a
// bijection, so two hashes are equal exactly when their values are:
// sorting the hashes and dropping repeats de-duplicates the set.
func New(values []uint64, size int) (Sketch, error) {
	if size <= 0 {
		return Sketch{}, fmt.Errorf("minhash: sketch size must be positive, got %d", size)
	}
	hashes := make([]uint64, len(values))
	for i, v := range values {
		hashes[i] = hash64(v)
	}
	slices.Sort(hashes)
	hashes = slices.Compact(hashes)
	if len(hashes) > size {
		// A copy, so the sketch does not keep the whole set's hashes alive.
		hashes = slices.Clone(hashes[:size])
	}
	return Sketch{Size: size, Hashes: slices.Clip(hashes)}, nil
}

// MustNew is New that panics on error.
func MustNew(values []uint64, size int) Sketch {
	s, err := New(values, size)
	if err != nil {
		//gas:invariant documented Must helper for static configurations; New is the checked path for untrusted sizes
		panic(err)
	}
	return s
}

// EstimateJaccard estimates J(A, B) from two bottom-k sketches using the
// standard merged-bottom-k estimator: among the k smallest hashes of the
// union, the fraction present in both sketches.
//
// Two empty sketches estimate 0, matching the exact kernel's
// J(∅, ∅) = 0 convention (dist.Jaccard): an empty sample shares nothing
// with anything, so it must not pair as a perfect match in thresholded
// runs.
func EstimateJaccard(a, b Sketch) (float64, error) {
	if a.Size != b.Size {
		return 0, fmt.Errorf("minhash: sketch sizes differ (%d vs %d)", a.Size, b.Size)
	}
	if len(a.Hashes) == 0 && len(b.Hashes) == 0 {
		return 0, nil // both sets empty: J(∅, ∅) = 0, as in dist.Jaccard
	}
	// Merge the two sorted hash lists, keeping the k smallest distinct
	// values of the union and counting how many appear in both.
	k := a.Size
	i, j, taken, shared := 0, 0, 0, 0
	for taken < k && (i < len(a.Hashes) || j < len(b.Hashes)) {
		switch {
		case j >= len(b.Hashes) || (i < len(a.Hashes) && a.Hashes[i] < b.Hashes[j]):
			i++
		case i >= len(a.Hashes) || b.Hashes[j] < a.Hashes[i]:
			j++
		default: // equal → in both
			shared++
			i++
			j++
		}
		taken++
	}
	if taken == 0 {
		return 0, nil
	}
	return float64(shared) / float64(taken), nil
}

// EstimateAtLeast reports whether EstimateJaccard(a, b) ≥ tau, with the
// same result but usually far less work: the merged bottom-k scan stops
// as soon as the running shared/taken counters bound the final estimate
// on one side of tau. For the prescreening gate's typical workload —
// mostly dissimilar pairs scanned against a high threshold — the scan
// ends after a small prefix of the sketches instead of all k positions.
//
// The early bounds keep a one-count margin, so any pair within one count
// of the boundary falls through to the exact final division; the decision
// is therefore always identical to computing EstimateJaccard and
// comparing, never off by floating-point rounding.
func EstimateAtLeast(a, b Sketch, tau float64) (bool, error) {
	if a.Size != b.Size {
		return false, fmt.Errorf("minhash: sketch sizes differ (%d vs %d)", a.Size, b.Size)
	}
	if len(a.Hashes) == 0 && len(b.Hashes) == 0 {
		return 0 >= tau, nil // est = 0, as in EstimateJaccard
	}
	k := a.Size
	target := tau * float64(k)
	i, j, taken, shared := 0, 0, 0, 0
	for taken < k && (i < len(a.Hashes) || j < len(b.Hashes)) {
		// est_final ≤ (shared + k − taken)/k: every further position adds at
		// most one shared count, and the bound is largest when the scan runs
		// the full k. est_final ≥ shared/k: shared never shrinks and the
		// denominator never exceeds k.
		if float64(shared+k-taken)+1 < target {
			return false, nil
		}
		if float64(shared)-1 >= target {
			return true, nil
		}
		switch {
		case j >= len(b.Hashes) || (i < len(a.Hashes) && a.Hashes[i] < b.Hashes[j]):
			i++
		case i >= len(a.Hashes) || b.Hashes[j] < a.Hashes[i]:
			j++
		default: // equal → in both
			shared++
			i++
			j++
		}
		taken++
	}
	if taken == 0 {
		return 0 >= tau, nil
	}
	return float64(shared)/float64(taken) >= tau, nil
}

// Builder accumulates a bottom-k sketch incrementally. Because
// bottom-k(A ∪ B) = bottom-k(bottom-k(A) ∪ bottom-k(B)), feeding a
// sample's attribute values batch range by batch range yields exactly the
// sketch New would build from the full set — this is what lets the
// engine's batch stage sketch out-of-core corpora without materialising
// whole samples.
//
// The hot path is one hash and one compare per value: hashes at or above
// the current k-th smallest are dropped immediately, and the surviving
// candidates are buffered and folded in by an occasional sort-and-merge
// compaction (amortised O(log k) per candidate) instead of per-value heap
// and hash-map maintenance, which would otherwise dominate on samples not
// much larger than the sketch.
type Builder struct {
	size    int
	sorted  []uint64 // bottom-k so far: sorted, distinct, len ≤ size
	pending []uint64 // unmerged candidates below the current threshold
}

// NewBuilder returns a Builder for sketches of the given size.
func NewBuilder(size int) (*Builder, error) {
	if size <= 0 {
		return nil, fmt.Errorf("minhash: sketch size must be positive, got %d", size)
	}
	return &Builder{size: size, pending: make([]uint64, 0, size)}, nil
}

// Add folds more attribute values into the sketch under construction.
func (b *Builder) Add(values []uint64) {
	// max is the rejection threshold: once the bottom-k is full, any hash
	// at or above its maximum is either outside the bottom-k or a
	// duplicate of that maximum — both ignorable.
	max := uint64(math.MaxUint64)
	full := len(b.sorted) == b.size
	if full {
		max = b.sorted[b.size-1]
	}
	for _, v := range values {
		h := hash64(v)
		if full && h >= max {
			continue
		}
		b.pending = append(b.pending, h)
		if len(b.pending) == cap(b.pending) {
			b.compact()
			if full = len(b.sorted) == b.size; full {
				max = b.sorted[b.size-1]
			}
		}
	}
}

// compact folds the pending candidates into the sorted bottom-k:
// sort, merge, de-duplicate, truncate to size.
func (b *Builder) compact() {
	if len(b.pending) == 0 {
		return
	}
	slices.Sort(b.pending)
	merged := make([]uint64, 0, min(len(b.sorted)+len(b.pending), b.size))
	i, j := 0, 0
	for len(merged) < b.size && (i < len(b.sorted) || j < len(b.pending)) {
		var h uint64
		switch {
		case j >= len(b.pending) || (i < len(b.sorted) && b.sorted[i] <= b.pending[j]):
			h = b.sorted[i]
			i++
		default:
			h = b.pending[j]
			j++
		}
		if n := len(merged); n > 0 && merged[n-1] == h {
			continue // duplicate value (hash64 is injective)
		}
		merged = append(merged, h)
	}
	b.sorted = merged
	b.pending = b.pending[:0]
}

// Sketch finalises the accumulated state into a Sketch. The Builder stays
// usable; later Adds keep refining the same sketch.
func (b *Builder) Sketch() Sketch {
	b.compact()
	return Sketch{Size: b.size, Hashes: slices.Clone(b.sorted)}
}
