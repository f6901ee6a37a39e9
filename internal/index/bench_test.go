package index

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"genomeatscale/internal/synth"
)

// The layer benchmarks run on the shape of the repo benchmark's served
// corpus (benchmark/workloads.go, corpusFull): 256 samples of ~768 values
// over a 2^22 universe, sketch size 256, top-10 queries that keep most of
// one resident sample, and a storm of 200 one-sample appends.
const (
	fullSamples  = 256
	fullValues   = 768
	fullUniverse = 1 << 22
	fullSketchK  = 256
	fullTopK     = 10
	fullAppends  = 200
)

func fullSample(rng *synth.RNG) []uint64 {
	vals := make([]uint64, fullValues)
	for i := range vals {
		vals[i] = rng.Uint64n(fullUniverse)
	}
	slices.Sort(vals)
	return slices.Compact(vals)
}

func fullSource(rng *synth.RNG) *memSource {
	src := &memSource{}
	for i := 0; i < fullSamples; i++ {
		src.add(fmt.Sprintf("c%05d", i), fullSample(rng))
	}
	return src
}

// fullQueries perturbs resident samples: nine values in ten kept, the rest
// redrawn, so every query has one near neighbor and values outside every
// row map.
func fullQueries(rng *synth.RNG, src *memSource, count int) [][]uint64 {
	out := make([][]uint64, count)
	for k := range out {
		base := src.samples[rng.Intn(len(src.samples))]
		q := make([]uint64, 0, len(base))
		for _, v := range base {
			if rng.Intn(10) == 0 {
				v = rng.Uint64n(fullUniverse)
			}
			q = append(q, v)
		}
		slices.Sort(q)
		out[k] = slices.Compact(q)
	}
	return out
}

func fullCorpus(tb testing.TB, rng *synth.RNG, appends int) (*Corpus, *memSource) {
	tb.Helper()
	src := fullSource(rng)
	c, err := Build(src, Options{SketchK: fullSketchK})
	if err != nil {
		tb.Fatalf("Build: %v", err)
	}
	for i := 0; i < appends; i++ {
		if _, err := c.Append(fmt.Sprintf("a%05d", i), fullSample(rng)); err != nil {
			tb.Fatalf("Append: %v", err)
		}
	}
	return c, src
}

func benchQuery(b *testing.B, appends int) {
	rng := synth.NewRNG(1)
	c, src := fullCorpus(b, rng, appends)
	queries := fullQueries(rng, src, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(ctx, queries[i%len(queries)], QueryOptions{TopK: fullTopK}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorpusQueryBase(b *testing.B)       { benchQuery(b, 0) }
func BenchmarkCorpusQueryAfterStorm(b *testing.B) { benchQuery(b, fullAppends) }

// BenchmarkCorpusAppend measures one durable append: pack, write the
// segment, fsync, publish the count, fsync.
func BenchmarkCorpusAppend(b *testing.B) {
	rng := synth.NewRNG(2)
	c, _ := fullCorpus(b, rng, 0)
	if err := c.WriteFile(filepath.Join(b.TempDir(), "corpus.idx")); err != nil {
		b.Fatal(err)
	}
	samples := make([][]uint64, b.N)
	for i := range samples {
		samples[i] = fullSample(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Append("a", samples[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildWrite measures what the benchmark's index_build_s does:
// Build from the samples, then WriteFile with its fsyncs.
func BenchmarkBuildWrite(b *testing.B) {
	src := fullSource(synth.NewRNG(3))
	path := filepath.Join(b.TempDir(), "corpus.idx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Build(src, Options{SketchK: fullSketchK})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.WriteFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
