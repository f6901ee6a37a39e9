package graphsim

import (
	"math"
	"testing"

	"genomeatscale/internal/core"
	"genomeatscale/internal/synth"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate
	g.AddEdge(3, 3) // self loop
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	n1 := g.Neighbors(1)
	if len(n1) != 2 || n1[0] != 0 || n1[1] != 2 {
		t.Errorf("Neighbors(1) = %v", n1)
	}
	if len(g.Neighbors(3)) != 1 {
		t.Errorf("self loop neighbour list = %v", g.Neighbors(3))
	}
}

func TestGraphPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGraph(2).AddEdge(0, 2)
}

func TestNewGraphNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGraph(-1)
}

func TestVertexSimilarityKnownGraph(t *testing.T) {
	// Path graph 0-1-2-3: N(0)={1}, N(1)={0,2}, N(2)={1,3}, N(3)={2}.
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	res, err := VertexSimilarity(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// J(N(0), N(2)) = |{1}| / |{1,3}| = 0.5
	if !approx(res.Similarity(0, 2), 0.5) {
		t.Errorf("S(0,2) = %v, want 0.5", res.Similarity(0, 2))
	}
	// J(N(0), N(1)) = 0 (disjoint neighbourhoods)
	if !approx(res.Similarity(0, 1), 0) {
		t.Errorf("S(0,1) = %v, want 0", res.Similarity(0, 1))
	}
	// J(N(1), N(3)) = |{2}| / |{0,2}| = 0.5
	if !approx(res.Similarity(1, 3), 0.5) {
		t.Errorf("S(1,3) = %v, want 0.5", res.Similarity(1, 3))
	}
}

// randomGraph generates an Erdős–Rényi style graph with the given edge
// probability.
func randomGraph(n int, edgeProb float64, seed uint64) *Graph {
	g := NewGraph(n)
	rng := synth.NewRNG(seed ^ 0x6A4B)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < edgeProb {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func TestVertexSimilarityMatchesDirectDefinition(t *testing.T) {
	g := randomGraph(25, 0.2, 9)
	res, err := VertexSimilarity(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		nu := toUint64(g.Neighbors(u))
		for v := 0; v < g.N; v++ {
			nv := toUint64(g.Neighbors(v))
			want := core.JaccardPair(nu, nv)
			if !approx(res.Similarity(u, v), want) {
				t.Fatalf("S(%d,%d) = %v, want %v", u, v, res.Similarity(u, v), want)
			}
		}
	}
}

func TestVertexSimilarityDistributedPath(t *testing.T) {
	g := randomGraph(15, 0.25, 4)
	opts := core.DefaultOptions()
	opts.Procs = 4
	distRes, err := VertexSimilarity(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := VertexSimilarity(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if !approx(distRes.Similarity(u, v), seqRes.Similarity(u, v)) {
				t.Fatalf("distributed vs sequential mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func toUint64(xs []int) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

func TestJarvisPatrickClustering(t *testing.T) {
	// Two triangles joined by nothing: vertices 0-2 and 3-5.
	g := NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	res, err := VertexSimilarity(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	labels := JarvisPatrick(res.S, 0.3)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("first triangle should be one cluster")
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Error("second triangle should be one cluster")
	}
	if labels[0] == labels[3] {
		t.Error("triangles should be separate clusters")
	}
	// Threshold 0 merges everything (similarity ≥ 0 always holds).
	all := JarvisPatrick(res.S, 0)
	for _, l := range all {
		if l != all[0] {
			t.Error("threshold 0 should merge all vertices")
		}
	}
}

func TestPredictLinks(t *testing.T) {
	// Square 0-1-2-3-0: the two diagonals (0,2) and (1,3) are the natural
	// predictions — each pair shares both neighbours.
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	res, err := VertexSimilarity(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	links := PredictLinks(g, res.S, 2)
	if len(links) != 2 {
		t.Fatalf("links = %v", links)
	}
	found := map[[2]int]bool{}
	for _, l := range links {
		found[l] = true
	}
	if !found[[2]int{0, 2}] || !found[[2]int{1, 3}] {
		t.Errorf("expected the two diagonals, got %v", links)
	}
	// Requesting more links than exist must not panic.
	many := PredictLinks(g, res.S, 100)
	if len(many) != 2 {
		t.Errorf("PredictLinks with large k = %v", many)
	}
}

func TestEmptyGraphDataset(t *testing.T) {
	g := NewGraph(3) // no edges
	res, err := VertexSimilarity(g, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// All neighbourhoods empty → all pairs have similarity 0 under the
	// J(∅, ∅) = 0 convention: an isolated vertex matches nothing, itself
	// included.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !approx(res.Similarity(i, j), 0) {
				t.Errorf("S(%d,%d) = %v", i, j, res.Similarity(i, j))
			}
		}
	}
}
