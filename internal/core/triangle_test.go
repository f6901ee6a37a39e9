package core

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"

	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// TestLocalCellWidthBoundary runs the local target on both sides of the
// cell-width switch: m = 2³² − 1 accumulates in uint32 cells, m = 2³² in
// int64 cells. Values crowd both ends of the universe, so the first and
// last batch carry the shared rows. B, S and D must be byte-identical to
// the ExactJaccard oracle through both Similarity and Stream, the latter
// over bands that do not divide n.
func TestLocalCellWidthBoundary(t *testing.T) {
	for _, tc := range []struct {
		m      uint64
		narrow bool
	}{{1<<32 - 1, true}, {1 << 32, false}} {
		if got := narrowCells(tc.m); got != tc.narrow {
			t.Fatalf("m=%d: narrowCells = %v, want %v", tc.m, got, tc.narrow)
		}
		rng := rand.New(rand.NewSource(int64(tc.m)))
		const n = 37
		samples := make([][]uint64, n)
		for j := range samples {
			for k := 0; k < 60; k++ {
				v := uint64(rng.Intn(400))
				if rng.Intn(2) == 0 {
					v = tc.m - 1 - v
				}
				samples[j] = append(samples[j], v)
			}
		}
		ds := MustInMemoryDataset(nil, samples, tc.m)
		wantS := ExactJaccard(ds)
		wantB := sparse.MustDense[int64](n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				wantB.Set(i, j, int64(intersectionSize(ds.Sample(i), ds.Sample(j))))
			}
		}

		opts := DefaultOptions()
		opts.BatchCount, opts.Workers, opts.TileRows = 3, 2, 8
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		gathered, err := e.Similarity(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		collect := tile.NewCollect()
		if _, err := e.Stream(context.Background(), ds, collect); err != nil {
			t.Fatal(err)
		}
		for _, got := range []struct {
			entry string
			b     *sparse.Dense[int64]
			s, d  *sparse.Dense[float64]
		}{
			{"Similarity", gathered.B, gathered.S, gathered.D},
			{"Stream", collect.B(), collect.S(), collect.D()},
		} {
			if !sparse.Equal(got.b, wantB, func(a, b int64) bool { return a == b }) {
				t.Errorf("m=%d %s: B differs from the intersection sizes", tc.m, got.entry)
			}
			for k, s := range wantS.Data {
				if got.s.Data[k] != s || got.d.Data[k] != 1-s {
					t.Fatalf("m=%d %s: cell %d has S=%v D=%v, want S=%v D=%v",
						tc.m, got.entry, k, got.s.Data[k], got.d.Data[k], s, 1-s)
				}
			}
		}
	}
}

// liveHeapSink samples the live heap while it holds each emitted tile.
type liveHeapSink struct {
	peak uint64
}

func (s *liveHeapSink) Emit(*tile.Tile) error {
	s.peak = max(s.peak, liveHeap())
	return nil
}

// liveHeap collects and returns the bytes of heap objects the collection
// found live.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestGatheredLocalRunLiveHeap pins the live heap of a gathered local run
// (the path behind Engine.Similarity, one band of n rows) at the moment it
// hands its tile to the sink: B, S and D are live, three n × n matrices,
// and the Gram's upper triangle — 2 MB of uint32 cells at n = 1 000 — has
// already been dropped.
func TestGatheredLocalRunLiveHeap(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(17))
	ds := randomDataset(rng, n, 4096, 0.002)
	opts := DefaultOptions()
	opts.Workers, opts.BatchCount = 1, 2
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sink liveHeapSink
	base := liveHeap()
	if _, err := e.run(context.Background(), ds, &sink, true); err != nil {
		t.Fatal(err)
	}
	const matrices, slack = 3 * 8 * n * n, 1 << 20
	if grown := int64(sink.peak) - int64(base); grown > matrices+slack {
		t.Errorf("gathered local run holds %d live bytes at emission, want <= %d (three %d×%d matrices) + %d slack",
			grown, matrices, n, n, slack)
	}
}
