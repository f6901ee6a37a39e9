package core

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"genomeatscale/internal/bsp"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

var differentialSeed = flag.Int64("differential.seed", 0, "run TestDifferentialRandomized for this seed only (as printed by a failure)")

// TestDifferentialRandomized is the randomized counterpart of the
// hand-enumerated equivalence grid: every seed draws a dataset, a
// configuration on either side of the local/grid boundary, a transport and
// an entry point, and checks the output against the set-level oracle — B
// against intersection sizes, S against ExactJaccard to 1e-12. The same
// samples, permuted, then run on the other side of the boundary and must
// give the permuted matrices. A failure names its seed; re-run it alone
// with -differential.seed.
func TestDifferentialRandomized(t *testing.T) {
	if *differentialSeed != 0 {
		if err := differentialCase(*differentialSeed); err != nil {
			t.Fatalf("seed %d: %v", *differentialSeed, err)
		}
		return
	}
	for seed := int64(1); seed <= 250; seed++ {
		if err := differentialCase(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// differentialEntry is how a case takes its output: gathered, streamed into
// a collecting sink, or streamed into a top-k reduction.
type differentialEntry int

const (
	entrySimilarity differentialEntry = iota
	entryCollect
	entryTopK
)

func differentialCase(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(20)
	m := uint64(1 + rng.Intn(1500))
	density := []float64{0.002, 0.02, 0.1, 0.4}[rng.Intn(4)]
	samples := make([][]uint64, n)
	for j := range samples {
		if rng.Intn(10) == 0 {
			continue // an empty sample: J(∅, ·) = 0, diagonal included
		}
		for k := rng.Intn(int(float64(m)*density*2) + 2); k > 0; k-- {
			samples[j] = append(samples[j], uint64(rng.Int63n(int64(m))))
		}
	}
	ds := MustInMemoryDataset(nil, samples, m)

	opts := DefaultOptions()
	if rng.Intn(4) != 0 { // a quarter of the cases stay at one rank
		opts.Procs = 1 + rng.Intn(12)
	}
	opts.Replication = 1 + rng.Intn(4)
	opts.BatchCount = 1 + rng.Intn(8)
	opts.MaskBits = 1 + rng.Intn(64)
	opts.Workers = 1 + rng.Intn(4)
	opts.DenseThreshold = rng.Intn(4) - 1
	opts.TileRows = rng.Intn(n + 2)
	overTransport := rng.Intn(3) == 0 // one-rank grid when Procs == 1
	entry := differentialEntry(rng.Intn(3))
	desc := fmt.Sprintf("n=%d m=%d density=%v procs=%d c=%d batches=%d b=%d workers=%d dt=%d tilerows=%d transport=%v entry=%d",
		n, m, density, opts.Procs, opts.Replication, opts.BatchCount, opts.MaskBits, opts.Workers, opts.DenseThreshold, opts.TileRows, overTransport, entry)

	wantB := sparse.MustDense[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			wantB.Set(i, j, int64(intersectionSize(ds.Sample(i), ds.Sample(j))))
		}
	}
	wantS := ExactJaccard(ds)
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}

	b, s, pairs, err := differentialRun(ds, opts, overTransport, entry)
	if err != nil {
		return fmt.Errorf("%s: %w", desc, err)
	}
	if entry == entryTopK {
		var want []tile.Pair
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want = append(want, tile.Pair{I: i, J: j, Similarity: wantS.At(i, j)})
			}
		}
		tile.SortPairs(want)
		want = want[:min(len(want), differentialTopK)]
		if len(pairs) != len(want) {
			return fmt.Errorf("%s: top-k kept %d pairs, want %d", desc, len(pairs), len(want))
		}
		for k := range want {
			if pairs[k].I != want[k].I || pairs[k].J != want[k].J || !approxEqual(pairs[k].Similarity, want[k].Similarity) {
				return fmt.Errorf("%s: top-k pair %d = %+v, want %+v", desc, k, pairs[k], want[k])
			}
		}
	} else if err := differentialCheck(b, s, wantB, wantS, identity); err != nil {
		return fmt.Errorf("%s: %w", desc, err)
	}

	// Permutation invariance across the boundary: the permuted samples run
	// on the target the first run did not use.
	perm := rng.Perm(n)
	permuted := make([][]uint64, n)
	for i, p := range perm {
		permuted[i] = ds.Sample(p)
	}
	other := opts
	if local := opts.Procs == 1 && !overTransport; local {
		other.Procs = 2 + rng.Intn(11)
	} else {
		other.Procs = 1
	}
	b, s, _, err = differentialRun(MustInMemoryDataset(nil, permuted, m), other, false, entrySimilarity)
	if err != nil {
		return fmt.Errorf("%s: permuted at procs=%d: %w", desc, other.Procs, err)
	}
	if err := differentialCheck(b, s, wantB, wantS, perm); err != nil {
		return fmt.Errorf("%s: permuted at procs=%d: %w", desc, other.Procs, err)
	}
	return nil
}

const differentialTopK = 7

// differentialRun executes one configuration and returns rank 0's output:
// the matrices for the gathering entries, the retained pairs for top-k.
// Over a transport every rank is an engine of its own on a MemCluster
// endpoint, as separate processes would run it.
func differentialRun(ds Dataset, opts Options, overTransport bool, entry differentialEntry) (*sparse.Dense[int64], *sparse.Dense[float64], []tile.Pair, error) {
	type output struct {
		b     *sparse.Dense[int64]
		s     *sparse.Dense[float64]
		pairs []tile.Pair
		err   error
	}
	rank := func(opts Options) (out output) {
		e, err := NewEngine(opts)
		if err != nil {
			return output{err: err}
		}
		ctx := context.Background()
		switch entry {
		case entrySimilarity:
			var res *Result
			if res, out.err = e.Similarity(ctx, ds); out.err == nil {
				out.b, out.s = res.B, res.S
			}
		case entryCollect:
			sink := tile.NewCollect()
			_, out.err = e.Stream(ctx, ds, sink)
			out.b, out.s = sink.B(), sink.S()
		case entryTopK:
			sink := tile.NewTopK(differentialTopK)
			_, out.err = e.Stream(ctx, ds, sink)
			out.pairs = sink.Pairs()
		}
		return out
	}
	if !overTransport {
		out := rank(opts)
		return out.b, out.s, out.pairs, out.err
	}
	ts := bsp.MemCluster(opts.Procs)
	outs := make([]output, len(ts))
	var wg sync.WaitGroup
	for r := range ts {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rOpts := opts
			rOpts.Transport = ts[r]
			outs[r] = rank(rOpts)
		}(r)
	}
	wg.Wait()
	for r, out := range outs {
		if out.err != nil {
			return nil, nil, nil, fmt.Errorf("rank %d: %w", r, out.err)
		}
	}
	return outs[0].b, outs[0].s, outs[0].pairs, nil
}

// differentialCheck compares a run over the samples ordered by perm with
// the oracle of the unpermuted dataset: entry (i, j) of the run describes
// samples (perm[i], perm[j]).
func differentialCheck(b *sparse.Dense[int64], s *sparse.Dense[float64], wantB *sparse.Dense[int64], wantS *sparse.Dense[float64], perm []int) error {
	n := len(perm)
	if b == nil || s == nil || b.Rows != n || b.Cols != n || s.Rows != n || s.Cols != n {
		return fmt.Errorf("run returned no %d×%d matrices", n, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := b.At(i, j), wantB.At(perm[i], perm[j]); got != want {
				return fmt.Errorf("B[%d][%d] = %d, want intersection size %d", i, j, got, want)
			}
			if got, want := s.At(i, j), wantS.At(perm[i], perm[j]); !approxEqual(got, want) {
				return fmt.Errorf("S[%d][%d] = %v, want exact Jaccard %v", i, j, got, want)
			}
		}
	}
	return nil
}
