package index

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"genomeatscale/internal/bitmat"
	"genomeatscale/internal/core"
	"genomeatscale/internal/dist"
	"genomeatscale/internal/tile"
)

// memSource is a minimal Source for tests.
type memSource struct {
	names   []string
	samples [][]uint64
}

func (s *memSource) NumSamples() int         { return len(s.samples) }
func (s *memSource) Sample(i int) []uint64   { return s.samples[i] }
func (s *memSource) SampleName(i int) string { return s.names[i] }
func (s *memSource) NumAttributes() uint64   { return 1 << 20 }
func (s *memSource) add(name string, v []uint64) {
	s.names = append(s.names, name)
	s.samples = append(s.samples, v)
}

// randomSource draws n samples of sorted distinct values from [0, space).
func randomSource(rng *rand.Rand, n, space int, density float64) *memSource {
	s := &memSource{}
	for i := 0; i < n; i++ {
		var vals []uint64
		for v := 0; v < space; v++ {
			if rng.Float64() < density {
				vals = append(vals, uint64(v))
			}
		}
		s.add(fmt.Sprintf("s%03d", i), vals)
	}
	return s
}

// bruteNeighbors is the semantic oracle: exact set intersection + Eq. 2.
func bruteNeighbors(src *memSource, query []uint64, tau float64) []Neighbor {
	q := map[uint64]bool{}
	for _, v := range query {
		q[v] = true
	}
	var out []Neighbor
	for i, s := range src.samples {
		var b int64
		for _, v := range s {
			if q[v] {
				b++
			}
		}
		sim := dist.Jaccard(b, int64(len(q)), int64(len(s)))
		if sim < tau {
			continue
		}
		out = append(out, Neighbor{Sample: i, Name: src.names[i], Intersection: b, Similarity: sim})
	}
	sortNeighbors(out)
	return out
}

func sortNeighbors(ns []Neighbor) {
	for i := range ns {
		for j := i + 1; j < len(ns); j++ {
			if ns[j].Similarity > ns[i].Similarity ||
				(ns[j].Similarity == ns[i].Similarity && ns[j].Sample < ns[i].Sample) {
				ns[i], ns[j] = ns[j], ns[i]
			}
		}
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := randomSource(rng, 30, 400, 0.08)
	for _, spec := range []int{bitmat.DenseAuto, bitmat.DenseNever, 2} {
		c, err := Build(src, Options{DenseThreshold: spec})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for trial := 0; trial < 10; trial++ {
			// Queries mix resident values with values outside every row map.
			var q []uint64
			for v := 0; v < 400; v++ {
				if rng.Float64() < 0.1 {
					q = append(q, uint64(v))
				}
			}
			q = append(q, 1<<19, 1<<19+1)
			got, err := c.Query(context.Background(), q, QueryOptions{Workers: 1 + trial%3})
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			want := bruteNeighbors(src, q, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spec %d trial %d: query mismatch\ngot  %v\nwant %v", spec, trial, got, want)
			}
			tau := 0.05
			gotT, err := c.Query(context.Background(), q, QueryOptions{Threshold: tau})
			if err != nil {
				t.Fatalf("Query threshold: %v", err)
			}
			if want := bruteNeighbors(src, q, tau); !reflect.DeepEqual(gotT, want) {
				t.Fatalf("spec %d trial %d: threshold query mismatch", spec, trial)
			}
			k := 5
			gotK, err := c.Query(context.Background(), q, QueryOptions{TopK: k})
			if err != nil {
				t.Fatalf("Query topk: %v", err)
			}
			if want := bruteNeighbors(src, q, 0); !reflect.DeepEqual(gotK, want[:min(k, len(want))]) {
				t.Fatalf("spec %d trial %d: top-k mismatch", spec, trial)
			}
		}
	}
}

// TestRoundTripByteIdentical is the lossless-persistence acceptance
// criterion: write → mmap-open (and load) → query gives results
// byte-identical to querying the corpus that was built in memory.
func TestRoundTripByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src := randomSource(rng, 25, 300, 0.1)
	for _, sketchK := range []int{0, 8} {
		mem, err := Build(src, Options{SketchK: sketchK})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		path := filepath.Join(t.TempDir(), "corpus.idx")
		if err := mem.WriteFile(path); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		mapped, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		loaded, err := Load(path)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		for trial := 0; trial < 8; trial++ {
			q := src.samples[rng.Intn(len(src.samples))]
			opts := QueryOptions{TopK: 7, Threshold: 0.2}
			want, err := mem.Query(context.Background(), q, opts)
			if err != nil {
				t.Fatalf("in-memory query: %v", err)
			}
			gotM, err := mapped.Query(context.Background(), q, opts)
			if err != nil {
				t.Fatalf("mapped query: %v", err)
			}
			gotL, err := loaded.Query(context.Background(), q, opts)
			if err != nil {
				t.Fatalf("loaded query: %v", err)
			}
			if !reflect.DeepEqual(gotM, want) {
				t.Fatalf("sketchK=%d: mmap-opened query differs from in-memory", sketchK)
			}
			if !reflect.DeepEqual(gotL, want) {
				t.Fatalf("sketchK=%d: loaded query differs from in-memory", sketchK)
			}
		}
		if err := mapped.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestAppendEqualsRebuild is the incremental-append acceptance criterion:
// append-then-query is identical to full-rebuild-then-query, with the
// sketch gate on and off.
func TestAppendEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	full := randomSource(rng, 20, 300, 0.1)
	for _, sketchK := range []int{0, 8} {
		part := &memSource{names: full.names[:17], samples: full.samples[:17]}
		appended, err := Build(part, Options{SketchK: sketchK})
		if err != nil {
			t.Fatalf("Build partial: %v", err)
		}
		for i := 17; i < 20; i++ {
			id, err := appended.Append(full.names[i], full.samples[i])
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			if id != i {
				t.Fatalf("Append gave id %d, want %d", id, i)
			}
		}
		rebuilt, err := Build(full, Options{SketchK: sketchK})
		if err != nil {
			t.Fatalf("Build full: %v", err)
		}
		if appended.Samples() != rebuilt.Samples() {
			t.Fatalf("%d samples after append, rebuild has %d", appended.Samples(), rebuilt.Samples())
		}
		for trial := 0; trial < 10; trial++ {
			q := full.samples[rng.Intn(len(full.samples))]
			for _, opts := range []QueryOptions{
				{},
				{TopK: 6},
				{Threshold: 0.15},                 // sketch gate armed when sketchK > 0
				{Threshold: 0.15, NoSketch: true}, // exact thresholded
			} {
				got, err := appended.Query(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("appended query: %v", err)
				}
				want, err := rebuilt.Query(context.Background(), q, opts)
				if err != nil {
					t.Fatalf("rebuilt query: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sketchK=%d opts=%+v: append-then-query differs from rebuild-then-query\ngot  %v\nwant %v",
						sketchK, opts, got, want)
				}
			}
		}
	}
}

// TestAppendPersists proves the durable append path: appends against a
// file-backed corpus survive reopening, both mapped and loaded.
func TestAppendPersists(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	src := randomSource(rng, 10, 200, 0.1)
	c, err := Build(src, Options{SketchK: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	path := filepath.Join(t.TempDir(), "corpus.idx")
	if err := c.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	extra := []uint64{3, 50, 77, 120}
	if _, err := c.Append("late", extra); err != nil {
		t.Fatalf("Append: %v", err)
	}
	want, err := c.Query(context.Background(), extra, QueryOptions{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatalf("Open after append: %v", err)
	}
	defer reopened.Close()
	if reopened.Samples() != 11 || reopened.Segments() != 2 {
		t.Fatalf("reopened corpus has %d samples in %d segments, want 11 in 2",
			reopened.Samples(), reopened.Segments())
	}
	got, err := reopened.Query(context.Background(), extra, QueryOptions{})
	if err != nil {
		t.Fatalf("reopened query: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reopened query differs from pre-reopen query")
	}
	if names := reopened.Names(); names[10] != "late" {
		t.Fatalf("appended sample name %q, want %q", names[10], "late")
	}
}

// TestBatchTopKEquivalence is the serving-vs-batch contract: the pairs
// reconstructed from per-sample corpus queries are byte-identical to a
// batch engine run streamed into a TopK sink over the same samples.
func TestBatchTopKEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	src := randomSource(rng, 18, 250, 0.12)
	ds, err := core.NewInMemoryDataset(src.names, src.samples, src.NumAttributes())
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	eng, err := core.NewEngine(core.Options{BatchCount: 3, MaskBits: 64, Procs: 1, Replication: 1})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	const k = 15
	sink := tile.NewTopK(k)
	if _, err := eng.Stream(context.Background(), ds, sink); err != nil {
		t.Fatalf("stream: %v", err)
	}
	want := sink.Pairs()

	c, err := Build(src, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var pairs []tile.Pair
	for q := 0; q < src.NumSamples(); q++ {
		ns, err := c.Query(context.Background(), src.samples[q], QueryOptions{})
		if err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		for _, p := range TopPairs(q, ns) {
			if p.I == q { // keep each unordered pair once
				pairs = append(pairs, p)
			}
		}
	}
	tile.SortPairs(pairs)
	if len(pairs) > k {
		pairs = pairs[:k]
	}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("served pairs differ from batch TopK\ngot  %v\nwant %v", pairs, want)
	}
}

// TestSketchGateSubset: the gated result set never contains a neighbor the
// exact thresholded query would not, and misses only sketch-rejected ones.
func TestSketchGateSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	src := randomSource(rng, 40, 300, 0.15)
	c, err := Build(src, Options{SketchK: 16})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for trial := 0; trial < 10; trial++ {
		q := src.samples[rng.Intn(len(src.samples))]
		gated, err := c.Query(context.Background(), q, QueryOptions{Threshold: 0.3})
		if err != nil {
			t.Fatalf("gated: %v", err)
		}
		exact, err := c.Query(context.Background(), q, QueryOptions{Threshold: 0.3, NoSketch: true})
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		inExact := map[int]Neighbor{}
		for _, n := range exact {
			inExact[n.Sample] = n
		}
		for _, n := range gated {
			if want, ok := inExact[n.Sample]; !ok || want != n {
				t.Fatalf("gated neighbor %+v not in exact result", n)
			}
		}
	}
	if c.Counters().SketchSkips == 0 {
		t.Fatal("sketch gate never skipped a sample")
	}
}

func TestDefaultSlackMatchesCore(t *testing.T) {
	if DefaultSketchSlack != core.DefaultSketchSlack {
		t.Fatalf("index slack %v != core slack %v", DefaultSketchSlack, core.DefaultSketchSlack)
	}
}

func TestQueryValidationAndCancel(t *testing.T) {
	src := randomSource(rand.New(rand.NewSource(27)), 5, 50, 0.2)
	c, err := Build(src, Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := c.Query(context.Background(), nil, QueryOptions{TopK: -1}); err == nil {
		t.Fatal("negative top-k accepted")
	}
	if _, err := c.Query(context.Background(), nil, QueryOptions{Threshold: 1.5}); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Query(ctx, src.samples[0], QueryOptions{}); err == nil {
		t.Fatal("cancelled query returned no error")
	}
	if _, err := Build(src, Options{B: 65}); err == nil {
		t.Fatal("B=65 accepted")
	}
	if _, err := Build(src, Options{SketchK: -1}); err == nil {
		t.Fatal("negative sketch size accepted")
	}
}

func TestCountersAndInfoAccessors(t *testing.T) {
	src := randomSource(rand.New(rand.NewSource(28)), 6, 80, 0.2)
	c, err := Build(src, Options{SketchK: 4})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := c.Query(context.Background(), src.samples[0], QueryOptions{}); err != nil {
		t.Fatalf("query: %v", err)
	}
	cts := c.Counters()
	if cts.Queries != 1 || cts.Popcounts != 6 || cts.QuerySamples != 6 {
		t.Fatalf("counters %+v", cts)
	}
	if c.B() != 64 || c.SketchK() != 4 || c.Samples() != 6 || c.Segments() != 1 {
		t.Fatal("accessor mismatch")
	}
	if c.MemoryWords() <= 0 {
		t.Fatal("zero memory footprint")
	}
	if c.Path() != "" {
		t.Fatal("unbacked corpus has a path")
	}
}

// TopPairs adapts a query result to the batch tile.Pair convention for a
// query that is itself corpus sample q: each neighbor j becomes the
// upper-triangle pair (min(q,j), max(q,j)). Self pairs are dropped. The
// order is preserved, which matches tile.SortPairs for a fixed q.
func TopPairs(q int, neighbors []Neighbor) []tile.Pair {
	out := make([]tile.Pair, 0, len(neighbors))
	for _, nb := range neighbors {
		if nb.Sample == q {
			continue
		}
		i, j := q, nb.Sample
		if j < i {
			i, j = j, i
		}
		out = append(out, tile.Pair{I: i, J: j, Similarity: nb.Similarity})
	}
	return out
}
