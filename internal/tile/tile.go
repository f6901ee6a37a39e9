// Package tile defines the streaming output unit of SimilarityAtScale and
// the sinks that consume it. The paper's headline setting is one where the
// full n×n similarity output no longer fits on a single node; instead of
// gathering dense S and D matrices at rank 0, the execution engine emits
// the result as a sequence of finalized tiles — positioned rectangular
// blocks carrying the intersection counts B together with the derived
// similarity S and distance D values (Eq. 2) — as each batch/SUMMA block
// completes. Consumers that only need a reduction of the output (the top-k
// most similar pairs, the pairs above a threshold, a file written row by
// row) never hold more than one tile plus their own state.
//
// The package sits below internal/core and internal/dist (which produce
// tiles) and internal/output (which writes them), so every layer shares one
// Tile/Sink vocabulary.
package tile

import (
	"fmt"
	"sort"

	"genomeatscale/internal/sparse"
)

// Tile is one finalized rectangular block of the result matrices: rows
// [RowLo, RowLo+Rows) × columns [ColLo, ColLo+Cols) of B, S and D, each in
// row-major order. A tile's slices are only valid for the duration of the
// Emit call that delivers it — the engine reuses the backing buffers for
// subsequent tiles — so sinks that outlive the call must copy what they
// keep.
type Tile struct {
	RowLo, ColLo int
	Rows, Cols   int
	B            []int64   // intersection cardinalities b_ij (Eq. 4)
	S            []float64 // Jaccard similarities (Eq. 2)
	D            []float64 // Jaccard distances, D = 1 − S
}

// ByteSize implements the bsp.ByteSizer convention so a tile travelling
// between virtual ranks is accounted at its exact wire volume: the three
// payload blocks plus four position words.
func (t *Tile) ByteSize() int { return 8*(len(t.B)+len(t.S)+len(t.D)) + 32 }

// Words returns the tile's resident size in 64-bit words; the engine
// reports the per-run maximum as RunStats.PeakTileWords.
func (t *Tile) Words() int64 { return int64(len(t.B) + len(t.S) + len(t.D)) }

// Sink consumes finalized tiles. Emit is called from a single goroutine in
// a deterministic order (tiles sorted by (RowLo, ColLo)); returning an
// error aborts the run and surfaces the error from Engine.Stream.
type Sink interface {
	Emit(*Tile) error
}

// Starter is an optional Sink extension: Start is called once before the
// first tile with the sample count and names, letting matrix-assembling
// sinks allocate and file writers emit headers.
type Starter interface {
	Start(n int, names []string) error
}

// Flusher is an optional Sink extension: Flush is called once after the
// last tile of a successful run (it is not called when the run fails or is
// cancelled).
type Flusher interface {
	Flush() error
}

// Start invokes s.Start if the sink implements Starter.
func Start(s Sink, n int, names []string) error {
	if st, ok := s.(Starter); ok {
		return st.Start(n, names)
	}
	return nil
}

// Flush invokes s.Flush if the sink implements Flusher.
func Flush(s Sink) error {
	if f, ok := s.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// --- Collect -----------------------------------------------------------------

// Collect reassembles the emitted tiles into full dense B, S and D
// matrices: running Engine.Stream with a Collect sink produces matrices
// byte-identical to the ones Engine.Similarity returns.
type Collect struct {
	n     int
	names []string
	b     *sparse.Dense[int64]
	s     *sparse.Dense[float64]
	d     *sparse.Dense[float64]
}

// NewCollect returns an empty full-matrix collector.
func NewCollect() *Collect { return &Collect{} }

// Start allocates the n×n output matrices.
func (c *Collect) Start(n int, names []string) error {
	c.n = n
	c.names = append([]string(nil), names...)
	c.b = sparse.MustDense[int64](n, n)
	c.s = sparse.MustDense[float64](n, n)
	c.d = sparse.MustDense[float64](n, n)
	return nil
}

// Emit copies the tile into the assembled matrices.
func (c *Collect) Emit(t *Tile) error {
	if c.b == nil {
		return fmt.Errorf("tile: Collect.Emit before Start")
	}
	if t.RowLo < 0 || t.ColLo < 0 || t.RowLo+t.Rows > c.n || t.ColLo+t.Cols > c.n {
		return fmt.Errorf("tile: tile [%d+%d)×[%d+%d) outside %d×%d output",
			t.RowLo, t.Rows, t.ColLo, t.Cols, c.n, c.n)
	}
	for i := 0; i < t.Rows; i++ {
		row := t.RowLo + i
		copy(c.b.Row(row)[t.ColLo:t.ColLo+t.Cols], t.B[i*t.Cols:(i+1)*t.Cols])
		copy(c.s.Row(row)[t.ColLo:t.ColLo+t.Cols], t.S[i*t.Cols:(i+1)*t.Cols])
		copy(c.d.Row(row)[t.ColLo:t.ColLo+t.Cols], t.D[i*t.Cols:(i+1)*t.Cols])
	}
	return nil
}

// N returns the sample count announced by Start.
func (c *Collect) N() int { return c.n }

// Names returns the sample names announced by Start.
func (c *Collect) Names() []string { return c.names }

// B returns the assembled intersection-cardinality matrix (nil before Start).
func (c *Collect) B() *sparse.Dense[int64] { return c.b }

// S returns the assembled similarity matrix (nil before Start).
func (c *Collect) S() *sparse.Dense[float64] { return c.s }

// D returns the assembled distance matrix (nil before Start).
func (c *Collect) D() *sparse.Dense[float64] { return c.d }

// --- Pair reductions ---------------------------------------------------------

// Pair is one upper-triangle sample pair (I < J) retained by a reducing
// sink, with its similarity (the distance is 1 − Similarity).
type Pair struct {
	I, J       int
	Similarity float64
}

// ForEachUpperPair invokes fn for every strict upper-triangle entry
// (i < j, global indices) of the tile with its similarity, in row-major
// order. The engine tiles the full symmetric matrix with disjoint tiles,
// so iterating the strict upper triangle visits every sample pair exactly
// once across a run — the shared iteration of every pair-reducing sink.
func ForEachUpperPair(t *Tile, fn func(i, j int, s float64)) {
	for i := 0; i < t.Rows; i++ {
		gi := t.RowLo + i
		srow := t.S[i*t.Cols : (i+1)*t.Cols]
		for j := 0; j < t.Cols; j++ {
			if gj := t.ColLo + j; gj > gi {
				fn(gi, gj, srow[j])
			}
		}
	}
}

// pairLess is the deterministic total order shared by the reducing sinks
// and their post-hoc equivalents: higher similarity first, ties broken by
// ascending (I, J). A strict total order keeps TopK's retained set
// independent of tile arrival order.
func pairLess(a, b Pair) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// SortPairs orders pairs by descending similarity, ties by ascending
// (I, J) — the order Pairs() results are returned in and the order a
// post-hoc full-matrix scan must apply to agree with the streaming sinks.
func SortPairs(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool { return pairLess(pairs[i], pairs[j]) })
}

// TopKSink retains the k most similar upper-triangle pairs seen across all
// tiles, in O(k) memory, using a min-heap under the deterministic pair
// order. The diagonal (i == j) and the lower triangle are ignored, so every
// pair is considered exactly once regardless of how the engine tiles the
// symmetric output.
type TopKSink struct {
	k    int
	heap []Pair // min-heap: heap[0] is the weakest retained pair
}

// NewTopK returns a sink retaining the k best pairs; k must be positive.
func NewTopK(k int) *TopKSink {
	if k <= 0 {
		//gas:invariant k is validated positive by the options layer before a sink is built; this guards direct API misuse
		panic(fmt.Sprintf("tile: TopK requires a positive k, got %d", k))
	}
	return &TopKSink{k: k}
}

// Emit folds the tile's upper-triangle pairs into the heap.
func (s *TopKSink) Emit(t *Tile) error {
	ForEachUpperPair(t, func(i, j int, sim float64) {
		s.push(Pair{I: i, J: j, Similarity: sim})
	})
	return nil
}

func (s *TopKSink) push(p Pair) {
	if len(s.heap) == s.k {
		if !pairLess(p, s.heap[0]) {
			return
		}
		s.heap[0] = p
		s.siftDown(0)
		return
	}
	s.heap = append(s.heap, p)
	i := len(s.heap) - 1
	for i > 0 {
		// The weakest retained pair lives at the root, so a new pair bubbles
		// up past every ancestor that is better (pairLess) than it.
		parent := (i - 1) / 2
		if !pairLess(s.heap[parent], s.heap[i]) {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *TopKSink) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		weakest := i
		if l < len(s.heap) && pairLess(s.heap[weakest], s.heap[l]) {
			weakest = l
		}
		if r < len(s.heap) && pairLess(s.heap[weakest], s.heap[r]) {
			weakest = r
		}
		if weakest == i {
			return
		}
		s.heap[i], s.heap[weakest] = s.heap[weakest], s.heap[i]
		i = weakest
	}
}

// Pairs returns the retained pairs sorted by descending similarity (ties by
// ascending (I, J)). The sink remains usable; the returned slice is a copy.
func (s *TopKSink) Pairs() []Pair {
	out := append([]Pair(nil), s.heap...)
	SortPairs(out)
	return out
}

// ThresholdSink retains every upper-triangle pair whose similarity is at
// least Tau. Memory is proportional to the number of qualifying pairs — the
// near-duplicate use case where the interesting output is far smaller than
// the n² matrix.
type ThresholdSink struct {
	tau   float64
	pairs []Pair
}

// NewThreshold returns a sink retaining pairs with similarity ≥ tau.
func NewThreshold(tau float64) *ThresholdSink { return &ThresholdSink{tau: tau} }

// Emit appends the tile's qualifying upper-triangle pairs.
func (s *ThresholdSink) Emit(t *Tile) error {
	ForEachUpperPair(t, func(i, j int, sim float64) {
		if sim >= s.tau {
			s.pairs = append(s.pairs, Pair{I: i, J: j, Similarity: sim})
		}
	})
	return nil
}

// Pairs returns the retained pairs sorted by descending similarity (ties by
// ascending (I, J)). The returned slice is a copy.
func (s *ThresholdSink) Pairs() []Pair {
	out := append([]Pair(nil), s.pairs...)
	SortPairs(out)
	return out
}

// DiscardSink drops every tile. Streaming into it computes the run (and its
// statistics) without materialising any output.
type DiscardSink struct{}

// Emit drops the tile.
func (DiscardSink) Emit(*Tile) error { return nil }

// Discard is the shared DiscardSink instance.
var Discard Sink = DiscardSink{}
