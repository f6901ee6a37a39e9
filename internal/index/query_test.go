package index

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"genomeatscale/internal/synth"
)

// TestSetRowsMatchesSearch pins the two-pointer translation — the stepping
// walk and the galloping one, at full and narrow packing widths — to a
// binary search of every value: lists of every length ratio in both
// directions, empty lists, and query values below, between and above the
// row map's own.
func TestSetRowsMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	draw := func(n int, lo, span uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = lo + uint64(rng.Int63n(int64(span)))
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	sizes := []int{0, 1, 2, 7, 60, 60 * gallopRatio, 60*gallopRatio + 1, 5000}
	for _, b := range []int{64, 13, 1} {
		for _, nMap := range sizes {
			for _, nVals := range sizes {
				// The row map covers [1000, 9000); values also fall outside it.
				rowMap := draw(nMap, 1000, 8000)
				vals := draw(nVals, 0, 10000)
				want := make([]uint64, (len(rowMap)+b-1)/b)
				for _, v := range vals {
					if r, ok := slices.BinarySearch(rowMap, v); ok {
						want[r/b] |= 1 << uint(r%b)
					}
				}
				got := make([]uint64, len(want))
				setRows(got, rowMap, vals, b)
				if !slices.Equal(got, want) {
					t.Fatalf("b=%d, %d values through a %d-row map: bitmap differs from per-value search", b, len(vals), len(rowMap))
				}
			}
		}
	}
}

func TestGallop(t *testing.T) {
	a := []uint64{2, 4, 4, 8, 16, 32, 64, 128, 256}
	for lo := 0; lo <= len(a); lo++ {
		for v := uint64(0); v < 300; v++ {
			want := lo
			for want < len(a) && a[want] < v {
				want++
			}
			if got := gallop(a, lo, v); got != want {
				t.Fatalf("gallop(a, %d, %d) = %d, want %d", lo, v, got, want)
			}
		}
	}
}

// TestSelectionMatchesFullSort: the bounded selection keeps exactly the
// first k of the fully sorted candidates, ties on similarity included, for
// k below, at and above the candidate count.
func TestSelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		cands := make([]Neighbor, n)
		for i := range cands {
			// Few distinct similarities, so ties are the common case.
			cands[i] = Neighbor{Sample: i, Similarity: float64(rng.Intn(5)) / 4}
		}
		rng.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		all := slices.Clone(cands)
		slices.SortFunc(all, compareNeighbors)
		for _, k := range []int{0, 1, 2, 7, n, n + 3} {
			sel := selection{k: k}
			for _, c := range cands {
				sel.push(c)
			}
			want := all
			if k > 0 && k < n {
				want = all[:k]
			}
			if got := sel.sorted(); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: selection\n%v\nfull sort\n%v", n, k, got, want)
			}
		}
	}
}

// TestQueryManyChunks covers what the small fixtures cannot: a segment of
// several query chunks scanned by several workers, behind appended
// one-sample segments, with top-k, threshold and gate, against brute force.
func TestQueryManyChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	src := randomSource(rng, 2*queryChunk+40, 300, 0.06)
	base := &memSource{names: src.names[:2*queryChunk+30], samples: src.samples[:2*queryChunk+30]}
	c, err := Build(base, Options{SketchK: 16})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := base.NumSamples(); i < src.NumSamples(); i++ {
		if _, err := c.Append(src.names[i], src.samples[i]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for trial := 0; trial < 12; trial++ {
		q := slices.Clone(src.samples[rng.Intn(src.NumSamples())])
		q = append(q, 1<<19, uint64(rng.Intn(300)))
		rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] }) // unsorted, maybe a duplicate
		want := bruteNeighbors(src, q, 0)
		for _, workers := range []int{1, 3} {
			got, err := c.Query(context.Background(), q, QueryOptions{Workers: workers})
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d: full ranking differs from brute force", trial, workers)
			}
			gotK, err := c.Query(context.Background(), q, QueryOptions{Workers: workers, TopK: 9})
			if err != nil {
				t.Fatalf("Query top-k: %v", err)
			}
			if !reflect.DeepEqual(gotK, want[:9]) {
				t.Fatalf("trial %d workers %d: top-9 differs from the head of the full ranking", trial, workers)
			}
			gotT, err := c.Query(context.Background(), q, QueryOptions{Workers: workers, Threshold: 0.2, NoSketch: true, TopK: 1000})
			if err != nil {
				t.Fatalf("Query threshold: %v", err)
			}
			if !reflect.DeepEqual(gotT, bruteNeighbors(src, q, 0.2)) {
				t.Fatalf("trial %d workers %d: thresholded result differs from brute force", trial, workers)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Query(ctx, src.samples[0], QueryOptions{}); err == nil {
		t.Fatal("cancelled query over a chunked segment returned no error")
	}
}

// TestQueryAllocs pins the serve path's allocation discipline: a warm
// top-k query allocates its result slice and nothing that grows with the
// corpus — the same small bound on one segment and behind 64 appended
// ones, where every segment used to cost a row list, a packed column and a
// result buffer.
func TestQueryAllocs(t *testing.T) {
	const bound = 2
	for _, appends := range []int{0, 64} {
		rng := synth.NewRNG(4)
		c, src := fullCorpus(t, rng, appends)
		queries := fullQueries(rng, src, 8)
		ctx := context.Background()
		k := 0
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.Query(ctx, queries[k%len(queries)], QueryOptions{TopK: fullTopK, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			k++
		})
		if allocs > bound {
			t.Fatalf("%d appended segments: %.0f allocations per warm query, want at most %d", appends, allocs, bound)
		}
	}
}

// TestBuildRejectsUnsortedSamples: Build takes samples as the Source
// contract gives them — sorted and duplicate-free — and names the sample
// that breaks it instead of packing a wrong column.
func TestBuildRejectsUnsortedSamples(t *testing.T) {
	for name, bad := range map[string][]uint64{
		"unsorted":  {5, 9, 7},
		"duplicate": {5, 7, 7, 9},
	} {
		src := &memSource{}
		src.add("good", []uint64{1, 5, 9})
		src.add("bad", bad)
		if _, err := Build(src, Options{}); err == nil || !strings.Contains(err.Error(), "sample 1") {
			t.Errorf("%s sample: Build returned %v, want an error naming sample 1", name, err)
		}
	}
}
