// Package graphsim applies SimilarityAtScale to graph analytics
// (Section II-F of the paper): the Jaccard similarity of two vertices v and
// u is |N(v) ∩ N(u)| / |N(v) ∪ N(u)| over their neighbourhoods, a building
// block for Jarvis–Patrick clustering, missing-link discovery, and link
// prediction. A graph's adjacency structure maps directly onto the
// indicator matrix: one row per vertex (as a potential neighbour), one
// column per vertex (as a data sample), as laid out in Table III.
package graphsim

import (
	"context"
	"fmt"
	"slices"

	"genomeatscale/internal/core"
	"genomeatscale/internal/sparse"
)

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	// N is the number of vertices.
	N   int
	adj [][]int
}

// NewGraph creates an empty graph with n vertices.
func NewGraph(n int) *Graph {
	if n < 0 {
		//gas:invariant vertex counts come from generator configs and dataset sizes validated at the app layer
		panic(fmt.Sprintf("graphsim: negative vertex count %d", n))
	}
	return &Graph{N: n, adj: make([][]int, n)}
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are tolerated (duplicates are removed by Neighbors).
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.N || v < 0 || v >= g.N {
		//gas:invariant edges are generated against this same graph's vertex range; out-of-range is a generator bug
		panic(fmt.Sprintf("graphsim: edge (%d,%d) out of range [0,%d)", u, v, g.N))
	}
	g.adj[u] = append(g.adj[u], v)
	if u != v {
		g.adj[v] = append(g.adj[v], u)
	}
}

// Neighbors returns the sorted, duplicate-free neighbour list of v.
func (g *Graph) Neighbors(v int) []int {
	out := append([]int(nil), g.adj[v]...)
	slices.Sort(out)
	return slices.Compact(out)
}

// NumEdges returns the number of undirected edges (self-loops count once).
func (g *Graph) NumEdges() int {
	total := 0
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if u >= v {
				total++
			}
		}
	}
	return total
}

// Dataset encodes the graph's neighbourhoods as a SimilarityAtScale
// dataset: sample j is the neighbour set N(j), attributes are vertex ids.
func (g *Graph) Dataset() (*core.InMemoryDataset, error) {
	names := make([]string, g.N)
	samples := make([][]uint64, g.N)
	for v := 0; v < g.N; v++ {
		names[v] = fmt.Sprintf("vertex-%d", v)
		for _, u := range g.Neighbors(v) {
			samples[v] = append(samples[v], uint64(u))
		}
	}
	m := uint64(g.N)
	if m == 0 {
		m = 1
	}
	return core.NewInMemoryDataset(names, samples, m)
}

// VertexSimilarity computes the all-pairs neighbourhood Jaccard similarity
// matrix of the graph using the SimilarityAtScale pipeline.
func VertexSimilarity(g *Graph, opts core.Options) (*core.Result, error) {
	ds, err := g.Dataset()
	if err != nil {
		return nil, err
	}
	e, err := core.NewEngine(opts)
	if err != nil {
		return nil, err
	}
	return e.Similarity(context.Background(), ds)
}

// JarvisPatrick clusters vertices with the Jarvis–Patrick rule the paper
// cites: two vertices belong to the same cluster when their neighbourhood
// similarity reaches the threshold. Clusters are the connected components
// of the thresholded similarity graph.
func JarvisPatrick(similarity *sparse.Dense[float64], threshold float64) []int {
	n := similarity.Rows
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if similarity.At(i, j) >= threshold {
				union(i, j)
			}
		}
	}
	// Relabel components densely.
	label := make(map[int]int)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := label[r]; !ok {
			label[r] = len(label)
		}
		out[i] = label[r]
	}
	return out
}

// PredictLinks returns the top-k non-adjacent vertex pairs ranked by
// neighbourhood similarity — the similarity-based link-prediction use case
// of Section II-F.
func PredictLinks(g *Graph, similarity *sparse.Dense[float64], k int) [][2]int {
	type cand struct {
		u, v int
		s    float64
	}
	var cands []cand
	adjacent := make(map[[2]int]bool)
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			adjacent[[2]int{v, u}] = true
		}
	}
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if adjacent[[2]int{u, v}] {
				continue
			}
			if s := similarity.At(u, v); s > 0 {
				cands = append(cands, cand{u: u, v: v, s: s})
			}
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		switch {
		case a.s > b.s:
			return -1
		case a.s < b.s:
			return 1
		case a.u != b.u:
			return a.u - b.u
		default:
			return a.v - b.v
		}
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([][2]int, 0, k)
	for _, c := range cands[:k] {
		out = append(out, [2]int{c.u, c.v})
	}
	return out
}
