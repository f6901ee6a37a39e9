package cluster

import (
	"context"
	"math"
	"strings"
	"testing"

	"genomeatscale/internal/core"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/synth"
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

func TestUPGMAStructure(t *testing.T) {
	d, names := abcDistances()
	tree, err := UPGMA(d, names)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size != 3 {
		t.Errorf("tree size = %d", tree.Size)
	}
	leaves := tree.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %v", leaves)
	}
	// a and b must be joined first: find the subtree of size 2 and verify it
	// contains a and b.
	var pair *Tree
	if tree.Left.Size == 2 {
		pair = tree.Left
	} else {
		pair = tree.Right
	}
	pl := pair.Leaves()
	if !(contains(pl, "a") && contains(pl, "b")) {
		t.Errorf("UPGMA should join a,b first, got %v", pl)
	}
	// Ultrametric input: cophenetic distances recover the input exactly.
	coph := CophenticDistancePairs(tree)
	if math.Abs(coph[[2]string{"a", "b"}]-0.2) > 1e-9 {
		t.Errorf("cophenetic a-b = %v", coph[[2]string{"a", "b"}])
	}
	if math.Abs(coph[[2]string{"a", "c"}]-0.8) > 1e-9 {
		t.Errorf("cophenetic a-c = %v", coph[[2]string{"a", "c"}])
	}
	newick := tree.Newick()
	if !strings.HasSuffix(newick, ";") || !strings.Contains(newick, "a") {
		t.Errorf("Newick = %q", newick)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestUPGMAErrors(t *testing.T) {
	if _, err := UPGMA(nil, nil); err == nil {
		t.Error("expected error")
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
	tree, err := UPGMA(d, []string{"sample one", "s'2"})
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
// divergence structure of a synthetic genome family: the most diverged
// descendant must not be the ancestor's nearest neighbour.
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
	tree, err := UPGMA(res.D, names)
	if err != nil {
		t.Fatal(err)
	}
	// The top split must separate group a from group b.
	left := tree.Left.Leaves()
	right := tree.Right.Leaves()
	aSide, bSide := left, right
	if contains(right, "a0") {
		aSide, bSide = right, left
	}
	for _, name := range []string{"a0", "a1", "a2"} {
		if !contains(aSide, name) {
			t.Errorf("%s should be in the A-side of the top split", name)
		}
	}
	for _, name := range []string{"b0", "b1"} {
		if !contains(bSide, name) {
			t.Errorf("%s should be in the B-side of the top split", name)
		}
	}
}

func TestKMedoidsSeparatesGroups(t *testing.T) {
	// Distances: two clear groups {0,1,2} and {3,4}.
	d := denseFrom([][]float64{
		{0, 0.1, 0.1, 0.9, 0.9},
		{0.1, 0, 0.1, 0.9, 0.9},
		{0.1, 0.1, 0, 0.9, 0.9},
		{0.9, 0.9, 0.9, 0, 0.1},
		{0.9, 0.9, 0.9, 0.1, 0},
	})
	res, err := KMedoids(d, 2, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Medoids) != 2 {
		t.Fatalf("medoids = %v", res.Medoids)
	}
	if res.Assignment[0] != res.Assignment[1] || res.Assignment[1] != res.Assignment[2] {
		t.Error("samples 0-2 should share a cluster")
	}
	if res.Assignment[3] != res.Assignment[4] {
		t.Error("samples 3-4 should share a cluster")
	}
	if res.Assignment[0] == res.Assignment[3] {
		t.Error("the two groups must be separated")
	}
	sizes := res.ClusterSizes()
	if sizes[res.Assignment[0]] != 3 || sizes[res.Assignment[3]] != 2 {
		t.Errorf("cluster sizes = %v", sizes)
	}
	if res.Cost <= 0 || res.Iterations <= 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestKMedoidsErrors(t *testing.T) {
	d := denseFrom([][]float64{{0, 1}, {1, 0}})
	if _, err := KMedoids(nil, 1, 0, 10); err == nil {
		t.Error("nil matrix should fail")
	}
	if _, err := KMedoids(d, 0, 0, 10); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := KMedoids(d, 3, 0, 10); err == nil {
		t.Error("k>n should fail")
	}
	if _, err := KMedoids(sparse.MustDense[float64](2, 3), 1, 0, 10); err == nil {
		t.Error("non-square should fail")
	}
}

func TestKMedoidsKEqualsN(t *testing.T) {
	d := denseFrom([][]float64{{0, 1}, {1, 0}})
	res, err := KMedoids(d, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Errorf("k=n should give zero cost, got %v", res.Cost)
	}
}

func TestKMedoidsRandomStability(t *testing.T) {
	// On random Jaccard-like distances the algorithm must terminate within
	// maxIter and produce a valid assignment for every seed.
	rng := synth.NewRNG(44)
	n := 30
	d := sparse.MustDense[float64](n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			d.Set(i, j, v)
			d.Set(j, i, v)
		}
	}
	for seed := uint64(0); seed < 5; seed++ {
		res, err := KMedoids(d, 4, seed, 25)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Assignment) != n {
			t.Fatal("assignment length wrong")
		}
		for _, a := range res.Assignment {
			if a < 0 || a >= 4 {
				t.Fatalf("invalid assignment %d", a)
			}
		}
	}
}
