// Package cluster implements the downstream analyses the paper motivates as
// consumers of the Jaccard distance matrix (Figure 1, parts 7–9 and
// Section II): neighbour-joining guide trees with Newick output, the
// standard input for phylogenetic analysis and large-scale multiple
// sequence alignment.
package cluster

import (
	"fmt"
	"math"
	"strings"

	"genomeatscale/internal/sparse"
)

// Tree is a rooted binary tree over the input samples produced by
// hierarchical clustering.
type Tree struct {
	// Name is set for leaves and empty for internal nodes.
	Name string
	// Left and Right are nil for leaves.
	Left, Right *Tree
	// Length is the branch length from this node to its parent.
	Length float64
	// Size is the number of leaves under this node.
	Size int
}

// IsLeaf reports whether the node is a leaf.
func (t *Tree) IsLeaf() bool { return t.Left == nil && t.Right == nil }

// Newick serialises the tree in Newick format (with branch lengths), the
// interchange format consumed by phylogenetics and MSA tools such as the
// guide-tree pipelines the paper cites.
func (t *Tree) Newick() string {
	var b strings.Builder
	t.writeNewick(&b, true)
	b.WriteString(";")
	return b.String()
}

func (t *Tree) writeNewick(b *strings.Builder, root bool) {
	if t.IsLeaf() {
		b.WriteString(escapeNewick(t.Name))
	} else {
		b.WriteString("(")
		t.Left.writeNewick(b, false)
		b.WriteString(",")
		t.Right.writeNewick(b, false)
		b.WriteString(")")
	}
	if !root {
		fmt.Fprintf(b, ":%.6g", t.Length)
	}
}

func escapeNewick(name string) string {
	if strings.ContainsAny(name, "(),:;' \t") {
		return "'" + strings.ReplaceAll(name, "'", "''") + "'"
	}
	return name
}

// validateDistances checks the distance matrix shape and values.
func validateDistances(d *sparse.Dense[float64], names []string) error {
	if d == nil {
		return fmt.Errorf("cluster: nil distance matrix")
	}
	if d.Rows != d.Cols {
		return fmt.Errorf("cluster: distance matrix must be square, got %dx%d", d.Rows, d.Cols)
	}
	if len(names) != d.Rows {
		return fmt.Errorf("cluster: %d names for %d samples", len(names), d.Rows)
	}
	if d.Rows == 0 {
		return fmt.Errorf("cluster: empty distance matrix")
	}
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			v := d.At(i, j)
			if math.IsNaN(v) || v < 0 {
				return fmt.Errorf("cluster: invalid distance %v at (%d,%d)", v, i, j)
			}
		}
	}
	return nil
}

// NeighborJoining builds a tree with the Saitou–Nei neighbour-joining
// algorithm, the method the paper cites for phylogenetic tree construction
// from distance matrices. The returned tree is arbitrarily rooted at the
// final join.
func NeighborJoining(d *sparse.Dense[float64], names []string) (*Tree, error) {
	if err := validateDistances(d, names); err != nil {
		return nil, err
	}
	n := d.Rows
	if n == 1 {
		return &Tree{Name: names[0], Size: 1}, nil
	}
	type activeNode struct {
		tree *Tree
	}
	nodes := make([]*activeNode, n)
	for i := range nodes {
		nodes[i] = &activeNode{tree: &Tree{Name: names[i], Size: 1}}
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = append([]float64(nil), d.Row(i)...)
	}
	activeIdx := make([]int, n)
	for i := range activeIdx {
		activeIdx[i] = i
	}
	for len(activeIdx) > 2 {
		r := len(activeIdx)
		// Total distances.
		total := make(map[int]float64, r)
		for _, i := range activeIdx {
			var s float64
			for _, j := range activeIdx {
				s += dist[i][j]
			}
			total[i] = s
		}
		// Minimise the Q criterion.
		bi, bj := -1, -1
		best := math.Inf(1)
		for a := 0; a < r; a++ {
			for b := a + 1; b < r; b++ {
				i, j := activeIdx[a], activeIdx[b]
				q := float64(r-2)*dist[i][j] - total[i] - total[j]
				if q < best {
					best = q
					bi, bj = i, j
				}
			}
		}
		// Branch lengths to the new node.
		dij := dist[bi][bj]
		li := dij/2 + (total[bi]-total[bj])/(2*float64(len(activeIdx)-2))
		lj := dij - li
		if li < 0 {
			li = 0
		}
		if lj < 0 {
			lj = 0
		}
		left, right := nodes[bi].tree, nodes[bj].tree
		left.Length = li
		right.Length = lj
		merged := &Tree{Left: left, Right: right, Size: left.Size + right.Size}
		// Distances from the new node (stored in slot bi).
		for _, k := range activeIdx {
			if k == bi || k == bj {
				continue
			}
			nd := (dist[bi][k] + dist[bj][k] - dij) / 2
			if nd < 0 {
				nd = 0
			}
			dist[bi][k] = nd
			dist[k][bi] = nd
		}
		nodes[bi] = &activeNode{tree: merged}
		// Remove bj from the active set.
		next := activeIdx[:0]
		for _, k := range activeIdx {
			if k != bj {
				next = append(next, k)
			}
		}
		activeIdx = next
	}
	// Join the last two nodes.
	i, j := activeIdx[0], activeIdx[1]
	left, right := nodes[i].tree, nodes[j].tree
	left.Length = dist[i][j] / 2
	right.Length = dist[i][j] / 2
	return &Tree{Left: left, Right: right, Size: left.Size + right.Size}, nil
}
