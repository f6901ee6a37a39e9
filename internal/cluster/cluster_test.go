package cluster

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"genomeatscale/internal/core"
	"genomeatscale/internal/sparse"
)

// denseFrom builds a dense matrix from a 2D slice.
func denseFrom(rows [][]float64) *sparse.Dense[float64] {
	d := sparse.MustDense[float64](len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			d.Set(i, j, v)
		}
	}
	return d
}

// ultrametric example: a and b are close, c is far from both.
func abcDistances() (*sparse.Dense[float64], []string) {
	return denseFrom([][]float64{
		{0, 0.2, 0.8},
		{0.2, 0, 0.8},
		{0.8, 0.8, 0},
	}), []string{"a", "b", "c"}
}

func TestValidateDistances(t *testing.T) {
	d, names := abcDistances()
	if err := validateDistances(d, names); err != nil {
		t.Fatal(err)
	}
	if err := validateDistances(nil, nil); err == nil {
		t.Error("nil matrix should fail")
	}
	if err := validateDistances(sparse.MustDense[float64](2, 3), []string{"a", "b"}); err == nil {
		t.Error("non-square should fail")
	}
	if err := validateDistances(d, []string{"a"}); err == nil {
		t.Error("name mismatch should fail")
	}
	if err := validateDistances(sparse.MustDense[float64](0, 0), nil); err == nil {
		t.Error("empty should fail")
	}
	bad := denseFrom([][]float64{{0, -1}, {-1, 0}})
	if err := validateDistances(bad, []string{"a", "b"}); err == nil {
		t.Error("negative distances should fail")
	}
	nan := denseFrom([][]float64{{0, math.NaN()}, {math.NaN(), 0}})
	if err := validateDistances(nan, []string{"a", "b"}); err == nil {
		t.Error("NaN distances should fail")
	}
}

func TestNeighborJoiningAdditiveTree(t *testing.T) {
	// Additive (tree-realisable) distance matrix on 4 taxa; NJ must recover
	// the pairwise distances exactly via cophenetic distances.
	d := denseFrom([][]float64{
		{0, 3, 7, 8},
		{3, 0, 6, 7},
		{7, 6, 0, 5},
		{8, 7, 5, 0},
	})
	names := []string{"w", "x", "y", "z"}
	tree, err := NeighborJoining(d, names)
	if err != nil {
		t.Fatal(err)
	}
	coph := CophenticDistancePairs(tree)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			key := [2]string{names[i], names[j]}
			if names[j] < names[i] {
				key = [2]string{names[j], names[i]}
			}
			if math.Abs(coph[key]-d.At(i, j)) > 1e-9 {
				t.Errorf("cophenetic %v = %v, want %v", key, coph[key], d.At(i, j))
			}
		}
	}
}

func TestNeighborJoiningSmallCases(t *testing.T) {
	one := denseFrom([][]float64{{0}})
	tree, err := NeighborJoining(one, []string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	if !tree.IsLeaf() || tree.Name != "only" {
		t.Error("single taxon should be a leaf")
	}
	two := denseFrom([][]float64{{0, 1}, {1, 0}})
	tree, err = NeighborJoining(two, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size != 2 || len(tree.Leaves()) != 2 {
		t.Error("two-taxon tree wrong")
	}
	if _, err := NeighborJoining(nil, nil); err == nil {
		t.Error("expected error")
	}
}

func TestNewickEscaping(t *testing.T) {
	d := denseFrom([][]float64{{0, 1}, {1, 0}})
	tree, err := NeighborJoining(d, []string{"sample one", "s'2"})
	if err != nil {
		t.Fatal(err)
	}
	nw := tree.Newick()
	if !strings.Contains(nw, "'sample one'") {
		t.Errorf("names with spaces must be quoted: %q", nw)
	}
	if !strings.Contains(nw, "'s''2'") {
		t.Errorf("quotes must be doubled: %q", nw)
	}
}

// Tree construction from SimilarityAtScale distances must recover the
// group structure of the samples: two tight groups come out as a split.
func TestGuideTreeFromJaccardDistances(t *testing.T) {
	// Build samples with a clear structure: two tight groups.
	groupA := [][]uint64{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 6}, {1, 2, 3, 5, 6}}
	groupB := [][]uint64{{100, 101, 102, 103}, {100, 101, 102, 104}}
	var samples [][]uint64
	samples = append(samples, groupA...)
	samples = append(samples, groupB...)
	names := []string{"a0", "a1", "a2", "b0", "b1"}
	ds := core.MustInMemoryDataset(names, samples, 200)
	e, err := core.NewEngine(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Similarity(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := NeighborJoining(res.D, names)
	if err != nil {
		t.Fatal(err)
	}
	// Neighbour joining roots the tree arbitrarily, so the groups need not
	// meet at the root; {b0, b1} must still be a split: some subtree holds
	// exactly one group.
	if !hasSplit(tree, []string{"b0", "b1"}) && !hasSplit(tree, []string{"a0", "a1", "a2"}) {
		t.Errorf("no subtree separates {a0, a1, a2} from {b0, b1}: %s", tree.Newick())
	}
}

// hasSplit reports whether some subtree of t has exactly the leaves want,
// which must be sorted.
func hasSplit(t *Tree, want []string) bool {
	leaves := t.Leaves()
	slices.Sort(leaves)
	if slices.Equal(leaves, want) {
		return true
	}
	return !t.IsLeaf() && (hasSplit(t.Left, want) || hasSplit(t.Right, want))
}

// Leaves returns the leaf names in left-to-right order.
func (t *Tree) Leaves() []string {
	if t.IsLeaf() {
		return []string{t.Name}
	}
	return append(t.Left.Leaves(), t.Right.Leaves()...)
}

// CophenticDistancePairs returns the tree distance between every pair of
// leaves (the sum of branch lengths on the path connecting them), keyed by
// the name pair in ascending order; tests use it to verify that tree
// construction preserves the structure of the input distances.
func CophenticDistancePairs(t *Tree) map[[2]string]float64 {
	out := make(map[[2]string]float64)
	var walk func(node *Tree) map[string]float64
	walk = func(node *Tree) map[string]float64 {
		if node.IsLeaf() {
			return map[string]float64{node.Name: 0}
		}
		left := walk(node.Left)
		right := walk(node.Right)
		for a, da := range left {
			for b, db := range right {
				key := [2]string{a, b}
				if b < a {
					key = [2]string{b, a}
				}
				out[key] = da + node.Left.Length + db + node.Right.Length
			}
		}
		merged := make(map[string]float64, len(left)+len(right))
		for a, da := range left {
			merged[a] = da + node.Left.Length
		}
		for b, db := range right {
			merged[b] = db + node.Right.Length
		}
		return merged
	}
	walk(t)
	return out
}
