package tile

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// buildTiles cuts a symmetric n×n S (with D = 1−S and a fake B) into a
// ragged tiling and returns the tiles in shuffled order.
func buildTiles(rng *rand.Rand, n int, s []float64, tileRows, tileCols int) []*Tile {
	var tiles []*Tile
	for rlo := 0; rlo < n; rlo += tileRows {
		rhi := rlo + tileRows
		if rhi > n {
			rhi = n
		}
		for clo := 0; clo < n; clo += tileCols {
			chi := clo + tileCols
			if chi > n {
				chi = n
			}
			t := &Tile{RowLo: rlo, ColLo: clo, Rows: rhi - rlo, Cols: chi - clo}
			for i := rlo; i < rhi; i++ {
				for j := clo; j < chi; j++ {
					v := s[i*n+j]
					t.B = append(t.B, int64(v*100))
					t.S = append(t.S, v)
					t.D = append(t.D, 1-v)
				}
			}
			tiles = append(tiles, t)
		}
	}
	rng.Shuffle(len(tiles), func(i, j int) { tiles[i], tiles[j] = tiles[j], tiles[i] })
	return tiles
}

func randomSymmetric(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n*n)
	for i := 0; i < n; i++ {
		s[i*n+i] = 1
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			s[i*n+j] = v
			s[j*n+i] = v
		}
	}
	return s
}

func TestCollectReassembles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 17
	s := randomSymmetric(rng, n)
	c := NewCollect()
	if err := c.Start(n, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	for _, tl := range buildTiles(rng, n, s, 5, 3) {
		if err := c.Emit(tl); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c.S().At(i, j) != s[i*n+j] {
				t.Fatalf("S(%d,%d) = %v, want %v", i, j, c.S().At(i, j), s[i*n+j])
			}
			if c.D().At(i, j) != 1-s[i*n+j] {
				t.Fatalf("D(%d,%d) mismatch", i, j)
			}
			if c.B().At(i, j) != int64(s[i*n+j]*100) {
				t.Fatalf("B(%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestCollectRejectsOutOfBounds(t *testing.T) {
	c := NewCollect()
	if err := c.Emit(&Tile{Rows: 1, Cols: 1}); err == nil {
		t.Error("Emit before Start must error")
	}
	if err := c.Start(3, nil); err != nil {
		t.Fatal(err)
	}
	bad := &Tile{RowLo: 2, ColLo: 0, Rows: 2, Cols: 1,
		B: make([]int64, 2), S: make([]float64, 2), D: make([]float64, 2)}
	if err := c.Emit(bad); err == nil {
		t.Error("out-of-bounds tile must error")
	}
}

// postHocTopK is the reference the streaming sink must agree with: scan the
// full matrix, sort under the shared deterministic order, take k.
func postHocTopK(s []float64, n, k int) []Pair {
	var all []Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, Pair{I: i, J: j, Similarity: s[i*n+j]})
		}
	}
	SortPairs(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestTopKMatchesPostHoc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 23
	s := randomSymmetric(rng, n)
	for _, k := range []int{1, 5, 40, 1000} {
		sink := NewTopK(k)
		for _, tl := range buildTiles(rng, n, s, 4, 7) {
			if err := sink.Emit(tl); err != nil {
				t.Fatal(err)
			}
		}
		got := sink.Pairs()
		want := postHocTopK(s, n, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d pair %d: got %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestTopKTiesAreDeterministic(t *testing.T) {
	// All similarities equal: the retained set must be the k smallest (i, j).
	n := 8
	s := make([]float64, n*n)
	for i := range s {
		s[i] = 0.5
	}
	rng := rand.New(rand.NewSource(3))
	sink := NewTopK(3)
	for _, tl := range buildTiles(rng, n, s, 3, 3) {
		if err := sink.Emit(tl); err != nil {
			t.Fatal(err)
		}
	}
	got := sink.Pairs()
	want := []Pair{{0, 1, 0.5}, {0, 2, 0.5}, {0, 3, 0.5}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestThresholdMatchesPostHoc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 19
	s := randomSymmetric(rng, n)
	for _, tau := range []float64{0, 0.25, 0.9, 1.1} {
		sink := NewThreshold(tau)
		for _, tl := range buildTiles(rng, n, s, 6, 2) {
			if err := sink.Emit(tl); err != nil {
				t.Fatal(err)
			}
		}
		var want []Pair
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if s[i*n+j] >= tau {
					want = append(want, Pair{I: i, J: j, Similarity: s[i*n+j]})
				}
			}
		}
		SortPairs(want)
		got := sink.Pairs()
		if len(got) != len(want) {
			t.Fatalf("tau=%v: got %d pairs, want %d", tau, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tau=%v pair %d: got %+v, want %+v", tau, i, got[i], want[i])
			}
		}
	}
}

func TestTopKRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTopK(0) must panic")
		}
	}()
	NewTopK(0)
}

func TestStartFlushOptional(t *testing.T) {
	// Discard implements neither Starter nor Flusher; the helpers must no-op.
	if err := Start(Discard, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := Flush(Discard); err != nil {
		t.Fatal(err)
	}
	if err := Discard.Emit(&Tile{}); err != nil {
		t.Fatal(err)
	}
}

// failingSink fails its Emit and records whether it was called.
type failingSink struct{ emitted bool }

func (f *failingSink) Emit(*Tile) error { f.emitted = true; return errors.New("sink failed") }

// TestFan checks that a fanned-out run gives every sink what a run into
// it alone gives, that Fan of no sinks drops tiles and of one adds no
// wrapper, and that the first failing sink stops delivery of that tile.
func TestFan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 11
	s := randomSymmetric(rng, n)
	tiles := buildTiles(rng, n, s, 3, 4)
	collect, top := NewCollect(), NewTopK(6)
	sink := Fan(collect, top)
	if err := Start(sink, n, nil); err != nil {
		t.Fatal(err)
	}
	for _, tl := range tiles {
		if err := sink.Emit(tl); err != nil {
			t.Fatal(err)
		}
	}
	if err := Flush(sink); err != nil {
		t.Fatal(err)
	}
	for i, v := range s {
		if collect.S().Data[i] != v {
			t.Fatalf("fanned Collect S[%d] = %v, want %v", i, collect.S().Data[i], v)
		}
	}
	if got, want := top.Pairs(), postHocTopK(s, n, 6); !slices.Equal(got, want) {
		t.Errorf("fanned TopK = %v, want %v", got, want)
	}

	if err := Fan().Emit(tiles[0]); err != nil {
		t.Errorf("Fan() must drop tiles, got %v", err)
	}
	if Fan(top) != Sink(top) {
		t.Error("Fan of one sink must be that sink")
	}
	fail, after := &failingSink{}, &failingSink{}
	if err := Fan(fail, after).Emit(tiles[0]); err == nil || !fail.emitted || after.emitted {
		t.Errorf("Fan.Emit = %v (first called %v, second called %v); want the first error and no second call",
			err, fail.emitted, after.emitted)
	}
}
