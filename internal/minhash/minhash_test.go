package minhash_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"genomeatscale/internal/core"
	"genomeatscale/internal/minhash"
	"genomeatscale/internal/synth"
)

func TestNewValidation(t *testing.T) {
	if _, err := minhash.New([]uint64{1, 2}, 0); err == nil {
		t.Error("size 0 should error")
	}
	s, err := minhash.New([]uint64{1, 2, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Hashes) != 3 {
		t.Errorf("sketch of small set should keep all hashes, got %d", len(s.Hashes))
	}
	for i := 1; i < len(s.Hashes); i++ {
		if s.Hashes[i-1] >= s.Hashes[i] {
			t.Error("hashes must be sorted and distinct")
		}
	}
	big := minhash.MustNew(manyValues(5000), 100)
	if len(big.Hashes) != 100 {
		t.Errorf("sketch size = %d, want 100", len(big.Hashes))
	}
}

// newWithMap is the oracle for New: the de-duplicating set of hashes,
// sorted and cut to the sketch size.
func newWithMap(values []uint64, size int) minhash.Sketch {
	hashes := make([]uint64, 0, len(values))
	seen := make(map[uint64]struct{}, len(values))
	for _, v := range values {
		h := minhash.Hash64(v)
		if _, dup := seen[h]; dup {
			continue
		}
		seen[h] = struct{}{}
		hashes = append(hashes, h)
	}
	slices.Sort(hashes)
	if len(hashes) > size {
		hashes = hashes[:size]
	}
	return minhash.Sketch{Size: size, Hashes: hashes}
}

// TestNewMatchesMapOracle: New's sort-and-compact equals the hash-set
// construction on unsorted input, duplicates, the empty set and sizes
// above, at and below the set's cardinality.
func TestNewMatchesMapOracle(t *testing.T) {
	rng := synth.NewRNG(24)
	inputs := map[string][]uint64{
		"empty":      nil,
		"one":        {math.MaxUint64},
		"duplicates": {7, 7, 7, 0, 0, math.MaxUint64, math.MaxUint64},
	}
	for _, n := range []int{3, 64, 1000} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() >> 54 // unsorted, with many repeats
		}
		inputs[fmt.Sprintf("%d unsorted", n)] = vals
	}
	for name, vals := range inputs {
		for _, size := range []int{1, 2, 64, 2000} {
			got := minhash.MustNew(vals, size)
			want := newWithMap(vals, size)
			if got.Size != want.Size || !slices.Equal(got.Hashes, want.Hashes) {
				t.Fatalf("%s, size %d: New gives %v, the hash-set oracle %v", name, size, got.Hashes, want.Hashes)
			}
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	minhash.MustNew(nil, 0)
}

func manyValues(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i) * 2654435761
	}
	return out
}

func TestEstimateIdenticalAndDisjoint(t *testing.T) {
	vals := manyValues(3000)
	a := minhash.MustNew(vals, 200)
	b := minhash.MustNew(vals, 200)
	j, err := minhash.EstimateJaccard(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j != 1 {
		t.Errorf("identical sets estimate = %v, want 1", j)
	}
	other := make([]uint64, 3000)
	for i := range other {
		other[i] = uint64(i+1000000) * 40503
	}
	c := minhash.MustNew(other, 200)
	j, err = minhash.EstimateJaccard(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if j > 0.05 {
		t.Errorf("disjoint sets estimate = %v, want ≈0", j)
	}
}

// TestEstimateEmptySets pins the empty-set convention: two empty sketches
// estimate J = 0, exactly like the exact kernel (dist.Jaccard via
// core.JaccardPair). Anything else would let empty samples pair as perfect
// matches and flood thresholded runs once sketches gate the exact tier.
func TestEstimateEmptySets(t *testing.T) {
	a := minhash.MustNew(nil, 10)
	b := minhash.MustNew(nil, 10)
	j, err := minhash.EstimateJaccard(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j != 0 {
		t.Errorf("empty vs empty = %v, want 0", j)
	}
	if exact := core.JaccardPair(nil, nil); exact != j {
		t.Errorf("sketch estimate %v disagrees with exact kernel %v on empty sets", j, exact)
	}
	// One empty side: both tiers must agree on 0 as well.
	c := minhash.MustNew([]uint64{1, 2, 3}, 10)
	j, err = minhash.EstimateJaccard(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if exact := core.JaccardPair(nil, []uint64{1, 2, 3}); j != 0 || exact != 0 {
		t.Errorf("empty vs non-empty: sketch %v, exact %v, want 0 for both", j, exact)
	}
}

func TestEstimateSizeMismatch(t *testing.T) {
	a := minhash.MustNew([]uint64{1}, 10)
	b := minhash.MustNew([]uint64{1}, 20)
	if _, err := minhash.EstimateJaccard(a, b); err == nil {
		t.Error("size mismatch should error")
	}
	if _, err := minhash.EstimateAtLeast(a, b, 0.5); err == nil {
		t.Error("size mismatch should error in EstimateAtLeast too")
	}
}

// TestEstimateAtLeastMatchesEstimate pins the early-exit gate predicate to
// the full estimator: across similarity targets, sketch sizes, set sizes
// (including empty and sub-sketch-size sets) and thresholds — boundary
// values included — EstimateAtLeast(a, b, τ) must equal
// EstimateJaccard(a, b) ≥ τ in every single case.
func TestEstimateAtLeastMatchesEstimate(t *testing.T) {
	rng := synth.NewRNG(31)
	sizes := []int{1, 16, 256}
	var sketchPairs [][2]minhash.Sketch
	for _, size := range sizes {
		for _, target := range []float64{0, 0.1, 0.5, 0.8, 0.95, 1} {
			for _, n := range []int{0, 3, 100, 2000} {
				x, y := synth.PairWithJaccard(rng, 1<<40, n, target)
				sketchPairs = append(sketchPairs, [2]minhash.Sketch{
					minhash.MustNew(x, size), minhash.MustNew(y, size),
				})
			}
		}
	}
	for _, p := range sketchPairs {
		est, err := minhash.EstimateJaccard(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		// Boundary taus: exactly est, one count either side, and extremes.
		k := float64(p[0].Size)
		for _, tau := range []float64{-0.1, 0, est - 1/k, est, est + 1/k, 0.5, 0.7, 1, 1.1} {
			got, err := minhash.EstimateAtLeast(p[0], p[1], tau)
			if err != nil {
				t.Fatal(err)
			}
			if want := est >= tau; got != want {
				t.Fatalf("EstimateAtLeast(τ=%v) = %v, but EstimateJaccard = %v (k=%d, |a|=%d, |b|=%d)",
					tau, got, est, p[0].Size, len(p[0].Hashes), len(p[1].Hashes))
			}
		}
	}
}

func TestEstimateAccuracyAcrossSimilarities(t *testing.T) {
	rng := synth.NewRNG(5)
	for _, target := range []float64{0.1, 0.3, 0.5, 0.8, 0.95} {
		x, y := synth.PairWithJaccard(rng, 1<<40, 5000, target)
		exact := core.JaccardPair(sortedCopy(x), sortedCopy(y))
		a := minhash.MustNew(x, 1000)
		b := minhash.MustNew(y, 1000)
		est, err := minhash.EstimateJaccard(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est-exact) > 0.06 {
			t.Errorf("target %v: estimate %v vs exact %v", target, est, exact)
		}
	}
}

// Smaller sketches must (statistically) give worse estimates for very
// similar pairs — the paper's motivation for exact computation. We check
// that the small-sketch error is at least as large as the big-sketch error
// on average over several trials.
func TestSmallSketchLosesAccuracy(t *testing.T) {
	rng := synth.NewRNG(17)
	var smallErr, bigErr float64
	const trials = 12
	for i := 0; i < trials; i++ {
		x, y := synth.PairWithJaccard(rng, 1<<40, 8000, 0.97)
		exact := core.JaccardPair(sortedCopy(x), sortedCopy(y))
		small, _ := minhash.EstimateJaccard(minhash.MustNew(x, 50), minhash.MustNew(y, 50))
		big, _ := minhash.EstimateJaccard(minhash.MustNew(x, 4000), minhash.MustNew(y, 4000))
		smallErr += math.Abs(small - exact)
		bigErr += math.Abs(big - exact)
	}
	if smallErr < bigErr {
		t.Errorf("small sketches should not beat large sketches on average: small=%v big=%v", smallErr, bigErr)
	}
}

// TestBuilderMatchesNew pins the property the engine's batch-wise sketch
// pass relies on: feeding a sample's values to a Builder in arbitrary
// chunks yields exactly the sketch New builds from the full value list.
func TestBuilderMatchesNew(t *testing.T) {
	rng := synth.NewRNG(23)
	for _, n := range []int{0, 1, 50, 500, 5000} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() >> 20 // force occasional duplicates
		}
		for _, size := range []int{1, 7, 64, 256} {
			want := minhash.MustNew(vals, size)
			b, err := minhash.NewBuilder(size)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(vals); {
				hi := lo + 1 + int(rng.Uint64()%97)
				if hi > len(vals) {
					hi = len(vals)
				}
				b.Add(vals[lo:hi])
				lo = hi
			}
			got := b.Sketch()
			if got.Size != want.Size || !equalU64(got.Hashes, want.Hashes) {
				t.Fatalf("n=%d size=%d: builder sketch differs from New", n, size)
			}
		}
	}
	if _, err := minhash.NewBuilder(0); err == nil {
		t.Error("minhash.NewBuilder(0) should error")
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedCopy(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j] > v {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	return out
}
