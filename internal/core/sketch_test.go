package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"genomeatscale/internal/costmodel"
	"genomeatscale/internal/sparse"
	"genomeatscale/internal/tile"
)

// clusteredSamples builds a corpus of near-duplicate clusters over a 2^40
// attribute universe: every cluster shares a base attribute set and each
// member adds its own random extras, so within-cluster pairs have exact
// Jaccard ≈ base/(base + 2·extra) ≈ withinJ while cross-cluster pairs are
// (with overwhelming probability at this universe size) disjoint. This is
// the thresholded workload the prescreening tier targets: few pairs above
// the threshold, a large majority far below it.
func clusteredSamples(rng *rand.Rand, clusters, perCluster, baseSize int, withinJ float64) ([][]uint64, uint64) {
	const m = uint64(1) << 40
	extra := int(math.Round(float64(baseSize) * (1 - withinJ) / (2 * withinJ)))
	samples := make([][]uint64, 0, clusters*perCluster)
	for c := 0; c < clusters; c++ {
		base := make([]uint64, baseSize)
		for i := range base {
			base[i] = uint64(rng.Int63()) % m
		}
		for s := 0; s < perCluster; s++ {
			sample := append([]uint64(nil), base...)
			for k := 0; k < extra; k++ {
				sample = append(sample, uint64(rng.Int63())%m)
			}
			samples = append(samples, sample)
		}
	}
	return samples, m
}

// pairsAbove post-hoc filters a full similarity matrix: the upper-triangle
// pairs (i < j) with S ≥ tau — the reference the prescreened survivor set
// is scored against.
func pairsAbove(s *sparse.Dense[float64], tau float64) map[[2]int]float64 {
	out := make(map[[2]int]float64)
	n := s.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v := s.At(i, j); v >= tau {
				out[[2]int{i, j}] = v
			}
		}
	}
	return out
}

// TestSketchRecallAndScreening is the acceptance property of the tier: on
// a clustered corpus thresholded at τ = 0.8 with the default slack, the
// prescreened run must recover at least 99% of the pairs a post-hoc filter
// of the full exact matrix finds (here: all of them), while screening out
// more than half of all pairs before the exact kernel.
func TestSketchRecallAndScreening(t *testing.T) {
	const tau = 0.8
	rng := rand.New(rand.NewSource(404))
	samples, m := clusteredSamples(rng, 8, 5, 400, 0.85)
	ds := MustInMemoryDataset(nil, samples, m)
	n := len(samples)
	ctx := context.Background()

	exactOpts := DefaultOptions()
	exact, err := run(ds, exactOpts)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := pairsAbove(exact.S, tau)
	if len(wantPairs) == 0 {
		t.Fatal("degenerate corpus: no pairs above the threshold")
	}

	skOpts := DefaultOptions()
	skOpts.Sketch = SketchOptions{Threshold: tau}
	res, err := run(ds, skOpts)
	if err != nil {
		t.Fatal(err)
	}
	gotPairs := pairsAbove(res.S, tau)
	hit := 0
	for p := range wantPairs {
		if _, ok := gotPairs[p]; ok {
			hit++
		}
	}
	recall := float64(hit) / float64(len(wantPairs))
	if recall < 0.99 {
		t.Errorf("prescreen recall %.4f (%d of %d pairs), want ≥ 0.99", recall, hit, len(wantPairs))
	}
	for p, v := range gotPairs {
		if want, ok := wantPairs[p]; !ok {
			t.Errorf("pair %v above τ only in the prescreened run (S=%v)", p, v)
		} else if v != want {
			t.Errorf("pair %v: prescreened S=%v, exact S=%v (must be byte-identical)", p, v, want)
		}
	}

	st := res.Stats.Sketch
	if st == nil {
		t.Fatal("prescreened run recorded no SketchStats")
	}
	if want := int64(n) * int64(n+1) / 2; st.PairsScreened != want {
		t.Errorf("PairsScreened = %d, want %d", st.PairsScreened, want)
	}
	if st.PairsSurvived*2 >= st.PairsScreened {
		t.Errorf("screened out %d of %d pairs, want more than half",
			st.PairsScreened-st.PairsSurvived, st.PairsScreened)
	}
	if want := costmodel.SketchSizeFor(tau, DefaultSketchSlack); st.Size != want {
		t.Errorf("auto-derived sketch size %d, want %d", st.Size, want)
	}
	if st.Threshold != tau || st.Slack != DefaultSketchSlack {
		t.Errorf("gate parameters not recorded: threshold %v slack %v", st.Threshold, st.Slack)
	}
	if st.EstimatedRecall < 0.99 || st.EstimatedRecall > 1 {
		t.Errorf("modelled recall %v out of range for k=%d", st.EstimatedRecall, st.Size)
	}
	if exact.Stats.Sketch != nil {
		t.Error("non-prescreened run must carry no SketchStats")
	}

	// The same run through a Threshold sink: the streamed reduction must
	// retain exactly the surviving pairs with identical similarities.
	e, err := NewEngine(skOpts)
	if err != nil {
		t.Fatal(err)
	}
	sink := tile.NewThreshold(tau)
	if _, err := e.Stream(ctx, ds, sink); err != nil {
		t.Fatal(err)
	}
	streamed := sink.Pairs()
	if len(streamed) != len(gotPairs) {
		t.Fatalf("Threshold sink retained %d pairs, gathered run has %d", len(streamed), len(gotPairs))
	}
	for _, p := range streamed {
		if v, ok := gotPairs[[2]int{p.I, p.J}]; !ok || v != p.Similarity {
			t.Errorf("streamed pair (%d,%d) S=%v disagrees with gathered run", p.I, p.J, p.Similarity)
		}
	}
}

// TestSketchEquivalenceGrid adds the Sketch ∈ {off, on} dimension to the
// equivalence grid: across batch counts, worker counts, storage layouts
// and explicit/auto sketch sizes, every pair that survives prescreening
// must be byte-identical (exact int64/float64 equality) to the
// non-prescreened serial baseline, and every pruned pair must read B = 0,
// S = 0, D = 1 with an exact similarity below the threshold (no lost
// pairs on this wide-margin corpus).
func TestSketchEquivalenceGrid(t *testing.T) {
	const tau = 0.8
	rng := rand.New(rand.NewSource(405))
	samples, m := clusteredSamples(rng, 5, 3, 200, 0.85)
	// Adversarial extras: empty samples (prunable via the J(∅,·) = 0
	// convention) and a singleton with no partner above the gate.
	samples = append(samples, nil, []uint64{1, 2, 3}, nil)
	ds := MustInMemoryDataset(nil, samples, m)
	n := len(samples)

	offOpts := DefaultOptions()
	offOpts.Workers = 1
	offOpts.DenseThreshold = -1
	off, err := run(ds, offOpts)
	if err != nil {
		t.Fatal(err)
	}

	for _, batches := range []int{1, 3, 7} {
		for _, workers := range []int{1, 4} {
			for _, dt := range []int{-1, 0, 1} {
				for _, size := range []int{0, 64} {
					opts := DefaultOptions()
					opts.BatchCount = batches
					opts.Workers = workers
					opts.DenseThreshold = dt
					opts.TileRows = 3 // several row bands even at this n
					opts.Sketch = SketchOptions{Size: size, Threshold: tau}
					if size > 0 {
						opts.SetExplicit(FieldSketchSize)
					}
					on, err := run(ds, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := on.Stats.Sketch.Size; size > 0 && got != size {
						t.Fatalf("explicit sketch size %d resolved to %d", size, got)
					}
					for i := 0; i < n; i++ {
						if on.Cardinalities[i] != off.Cardinalities[i] {
							t.Fatalf("l=%d w=%d dt=%d k=%d: cardinality of sample %d drifted under prescreening",
								batches, workers, dt, size, i)
						}
						for j := 0; j < n; j++ {
							sOn, sOff := on.S.At(i, j), off.S.At(i, j)
							if sOn != 0 {
								if sOn != sOff || on.B.At(i, j) != off.B.At(i, j) || on.D.At(i, j) != off.D.At(i, j) {
									t.Fatalf("l=%d w=%d dt=%d k=%d: surviving pair (%d,%d) not byte-identical: S %v vs %v",
										batches, workers, dt, size, i, j, sOn, sOff)
								}
								continue
							}
							// Pruned (or genuinely zero): the documented
							// B = 0, S = 0, D = 1 convention, and no pair at
							// or above τ may be lost.
							if on.B.At(i, j) != 0 || on.D.At(i, j) != 1 {
								t.Fatalf("l=%d w=%d dt=%d k=%d: pruned pair (%d,%d) has B=%d D=%v, want 0 and 1",
									batches, workers, dt, size, i, j, on.B.At(i, j), on.D.At(i, j))
							}
							if sOff >= tau {
								t.Fatalf("l=%d w=%d dt=%d k=%d: pair (%d,%d) with exact S=%v lost to prescreening",
									batches, workers, dt, size, i, j, sOff)
							}
						}
					}
				}
			}
		}
	}
}

// TestSketchEmptySamples: with prescreening on, empty samples are pruned
// everywhere — including their own diagonal — and the result is still
// byte-identical to the non-prescreened run, because the J(∅, ·) = 0
// convention makes both tiers agree that empty samples match nothing.
func TestSketchEmptySamples(t *testing.T) {
	ds := MustInMemoryDataset(nil, [][]uint64{{1, 2, 3}, {1, 2, 3}, nil, nil}, 10)
	opts := DefaultOptions()
	opts.Sketch = SketchOptions{Threshold: 0.5}
	on, err := run(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	off, err := run(ds, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	intEq := func(a, b int64) bool { return a == b }
	floatEq := func(a, b float64) bool { return a == b }
	if !sparse.Equal(on.B, off.B, intEq) || !sparse.Equal(on.S, off.S, floatEq) || !sparse.Equal(on.D, off.D, floatEq) {
		t.Fatal("prescreened result differs from exact run on the empty-sample corpus")
	}
	if on.S.At(0, 1) != 1 {
		t.Errorf("identical samples: S = %v, want 1", on.S.At(0, 1))
	}
	for _, ij := range [][2]int{{2, 2}, {3, 3}, {2, 3}, {0, 2}} {
		if v := on.S.At(ij[0], ij[1]); v != 0 {
			t.Errorf("empty-sample pair %v: S = %v, want 0", ij, v)
		}
	}
}

// TestSketchValidation pins the configuration guards: prescreening is
// single-process only — a one-rank transport selects the grid target and is
// refused too — and its gate parameters must be sane.
func TestSketchValidation(t *testing.T) {
	cases := []struct {
		name string
		opts func(*Options)
	}{
		{"procs", func(o *Options) { o.Procs = 4; o.Sketch = SketchOptions{Threshold: 0.8} }},
		{"one-rank grid", func(o *Options) { *o = oneRankGrid(*o); o.Sketch = SketchOptions{Threshold: 0.8} }},
		{"negative size", func(o *Options) { o.Sketch = SketchOptions{Size: -1, Threshold: 0.8} }},
		{"no threshold", func(o *Options) { o.Sketch = SketchOptions{Size: 64} }},
		{"threshold above one", func(o *Options) { o.Sketch = SketchOptions{Threshold: 1.5} }},
		{"negative threshold", func(o *Options) { o.Sketch = SketchOptions{Threshold: -1} }},
		{"slack above one", func(o *Options) { o.Sketch = SketchOptions{Threshold: 0.8, Slack: 2} }},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		tc.opts(&opts)
		if _, err := NewEngine(opts); err == nil {
			t.Errorf("%s: NewEngine accepted invalid sketch options %+v", tc.name, opts.Sketch)
		}
	}
}

// TestSketchAutotune: under Autotune the planner sizes the sketch (pinning
// an explicit size), forces the sequential path, records both reports, and
// — the tuning invariant — never changes the result.
func TestSketchAutotune(t *testing.T) {
	const tau = 0.8
	rng := rand.New(rand.NewSource(406))
	samples, m := clusteredSamples(rng, 4, 3, 200, 0.85)
	ds := MustInMemoryDataset(nil, samples, m)

	base := DefaultOptions()
	base.Sketch = SketchOptions{Threshold: tau}
	want, err := run(ds, base)
	if err != nil {
		t.Fatal(err)
	}

	auto := base
	auto.Autotune = true
	res, err := run(ds, auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tuning == nil || res.Stats.Sketch == nil {
		t.Fatal("autotuned prescreened run must record both a TuningReport and SketchStats")
	}
	if res.Stats.Tuning.Plan.Procs != 1 {
		t.Errorf("tuner chose Procs=%d for a prescreened run, want 1", res.Stats.Tuning.Plan.Procs)
	}
	if want := costmodel.SketchSizeFor(tau, DefaultSketchSlack); res.Stats.Sketch.Size != want {
		t.Errorf("tuned sketch size %d, want derived %d", res.Stats.Sketch.Size, want)
	}
	intEq := func(a, b int64) bool { return a == b }
	floatEq := func(a, b float64) bool { return a == b }
	if !sparse.Equal(want.B, res.B, intEq) || !sparse.Equal(want.S, res.S, floatEq) {
		t.Error("autotuning changed the prescreened result")
	}

	pinned := auto
	pinned.Sketch.Size = 128
	pinned.SetExplicit(FieldSketchSize)
	res2, err := run(ds, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Sketch.Size != 128 {
		t.Errorf("pinned sketch size resolved to %d, want 128", res2.Stats.Sketch.Size)
	}
	found := false
	for _, p := range res2.Stats.Tuning.Pinned {
		if p == "sketchsize" {
			found = true
		}
	}
	if !found {
		t.Errorf("explicit sketch size not reported as pinned: %v", res2.Stats.Tuning.Pinned)
	}
}

// TestSketchTopKSink: the TopK reduction composes with prescreening — on a
// corpus whose top pairs all survive the gate, the retained pairs are
// byte-identical to a non-prescreened TopK run.
func TestSketchTopKSink(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	samples, m := clusteredSamples(rng, 4, 4, 200, 0.85)
	ds := MustInMemoryDataset(nil, samples, m)
	ctx := context.Background()
	const k = 10

	run := func(opts Options) []tile.Pair {
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		sink := tile.NewTopK(k)
		if _, err := e.Stream(ctx, ds, sink); err != nil {
			t.Fatal(err)
		}
		return sink.Pairs()
	}

	off := run(DefaultOptions())
	onOpts := DefaultOptions()
	onOpts.Sketch = SketchOptions{Threshold: 0.8}
	on := run(onOpts)
	if len(on) != len(off) {
		t.Fatalf("prescreened TopK retained %d pairs, want %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Errorf("TopK pair %d differs under prescreening: %+v vs %+v", i, on[i], off[i])
		}
	}
}
