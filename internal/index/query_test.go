package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"genomeatscale/internal/synth"
)

// TestSetRowsMatchesSearch pins the translation — the filter probe and the
// gallop, at full and narrow packing widths — to a binary search of every
// value: lists of every length ratio in both directions, empty lists, and
// query values below, between and above the row map's own.
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
				new(queryScratch).setRows(got, rowMap, vals, b)
				if !slices.Equal(got, want) {
					t.Fatalf("b=%d, %d values through a %d-row map: bitmap differs from per-value search", b, len(vals), len(rowMap))
				}
			}
		}
	}
}

// searchRows is the translation oracle: a binary search of the row map
// for every query value.
func searchRows(rowMap, vals []uint64, b int) []uint64 {
	want := make([]uint64, (len(rowMap)+b-1)/b)
	for _, v := range vals {
		if r, ok := slices.BinarySearch(rowMap, v); ok {
			want[r/b] |= 1 << uint(r%b)
		}
	}
	return want
}

// checkRowPaths runs both translation paths, whatever the lengths, and
// setRows itself, against the per-value search.
func checkRowPaths(t *testing.T, name string, rowMap, vals []uint64, b int) {
	t.Helper()
	want := searchRows(rowMap, vals, b)
	got := make([]uint64, len(want))
	new(queryScratch).setRows(got, rowMap, vals, b)
	if !slices.Equal(got, want) {
		t.Fatalf("%s, b=%d: setRows differs from per-value search", name, b)
	}
	clear(got)
	gallopRows(got, rowMap, vals, b)
	if !slices.Equal(got, want) {
		t.Fatalf("%s, b=%d: gallopRows differs from per-value search", name, b)
	}
	clear(got)
	var f bitFilter
	f.build(vals)
	f.probeRows(got, rowMap, vals, b)
	if !slices.Equal(got, want) {
		t.Fatalf("%s, b=%d: probeRows differs from per-value search", name, b)
	}
}

// TestSetRowsPaths covers each translation path on both sides of
// gallopRatio, not only the side setRows picks for it: lists that share
// every value, one inside the other, the extreme values 0 and 2⁶⁴−1, empty
// lists, a query long enough to hit the filter's size cap, and row-map
// values built to collide with query values in the filter.
func TestSetRowsPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	draw := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = rng.Uint64() >> uint(rng.Intn(64))
		}
		out = append(out, 0, math.MaxUint64)
		slices.Sort(out)
		return slices.Compact(out)
	}
	for _, b := range []int{64, 13, 1} {
		for _, nVals := range []int{1, 5, 60, 3 * maxFilterWords} {
			vals := draw(nVals)
			for _, ratio := range []float64{0.1, 1, gallopRatio - 0.5, gallopRatio, gallopRatio + 0.5, 3 * gallopRatio} {
				other := draw(int(ratio * float64(len(vals))))
				mixed := slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(other), vals[:len(vals)/2]...))))
				checkRowPaths(t, fmt.Sprintf("%d values, 1:%g map", len(vals), ratio), mixed, vals, b)
				checkRowPaths(t, fmt.Sprintf("%d values, 1:%g query", len(vals), ratio), vals, mixed, b)
			}
			checkRowPaths(t, "identical lists", vals, vals, b)
			checkRowPaths(t, "query inside the map", vals, vals[len(vals)/3:], b)
			checkRowPaths(t, "map inside the query", vals[len(vals)/3:], vals, b)
			checkRowPaths(t, "empty map", nil, vals, b)
			checkRowPaths(t, "empty query", vals, nil, b)
		}
		checkRowPaths(t, "only the extremes", []uint64{0, math.MaxUint64}, []uint64{0, math.MaxUint64}, b)
		checkRowPaths(t, "max against 0", []uint64{math.MaxUint64}, []uint64{0}, b)
	}

	// Row-map values that are not in the query but probe to the word and
	// bits of a query value: every one passes the filter and must be
	// turned away by the exact check.
	vals := draw(40)
	var f bitFilter
	f.build(vals)
	wordMask := uint64(len(f.words) - 1)
	collide := map[[2]uint64]bool{}
	for _, v := range vals {
		w, m := probe(v, wordMask)
		collide[[2]uint64{w, m}] = true
	}
	var colliders []uint64
	for v := uint64(1); len(colliders) < 200; v++ {
		w, m := probe(v, wordMask)
		if _, in := slices.BinarySearch(vals, v); !in && collide[[2]uint64{w, m}] {
			colliders = append(colliders, v)
		}
	}
	for i := 0; i < len(vals); i += 2 {
		colliders = append(colliders, vals[i]) // and half the query, so some pass for real
	}
	rowMap := slices.Compact(slices.Sorted(slices.Values(colliders)))
	for _, b := range []int{64, 13, 1} {
		checkRowPaths(t, "colliding values", rowMap, vals, b)
	}
}

// FuzzSetRows checks setRows and both of its paths against the per-value
// search on arbitrary lists: each 8-byte word of the input is a value,
// split between row map and query by its low bit, with the extremes
// reachable.
func FuzzSetRows(f *testing.F) {
	f.Add([]byte{}, uint8(64))
	f.Add(append(make([]byte, 8), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), uint8(13))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuv"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		b := int(width%64) + 1
		var rowMap, vals []uint64
		for len(data) >= 8 {
			v := binary.LittleEndian.Uint64(data)
			data = data[8:]
			if v&1 == 0 {
				rowMap = append(rowMap, v)
			} else {
				vals = append(vals, v)
			}
			if v&2 == 0 {
				// Shared by both lists.
				rowMap = append(rowMap, v^1)
				vals = append(vals, v^1)
			}
		}
		slices.Sort(rowMap)
		slices.Sort(vals)
		checkRowPaths(t, "fuzzed lists", slices.Compact(rowMap), slices.Compact(vals), b)
	})
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
