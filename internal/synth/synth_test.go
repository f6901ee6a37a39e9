package synth

import (
	"math"
	"testing"

	"genomeatscale/internal/core"
)

// mustGenerate is Generate for static test configurations.
func mustGenerate(t *testing.T, cfg Config) *core.InMemoryDataset {
	t.Helper()
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRNG(8)
	same := true
	a = NewRNG(7)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnAndUint64n(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Uint64n(13); v >= 13 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) should panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(11)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		var sum float64
		const trials = 4000
		for i := 0; i < trials; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / trials
		if math.Abs(got-mean) > mean*0.15+0.3 {
			t.Errorf("Poisson(%v) sample mean %v too far off", mean, got)
		}
	}
	if NewRNG(1).Poisson(0) != 0 {
		t.Error("Poisson(0) should be 0")
	}
	if NewRNG(1).Poisson(-1) != 0 {
		t.Error("Poisson(-1) should be 0")
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(13)
	var sum, sumSq float64
	const trials = 20000
	for i := 0; i < trials; i++ {
		v := r.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("Normal variance = %v", variance)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Samples: 10, Attributes: 100, Density: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Samples: 0, Attributes: 10, Density: 0.1},
		{Samples: 1, Attributes: 0, Density: 0.1},
		{Samples: 1, Attributes: 10, Density: -0.1},
		{Samples: 1, Attributes: 10, Density: 1.5},
		{Samples: 1, Attributes: 10, Density: 0.5, ColumnVariability: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestGenerateDensityAndDeterminism(t *testing.T) {
	cfg := Config{Samples: 50, Attributes: 2000, Density: 0.05, Seed: 99}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 50 || ds.NumAttributes() != 2000 {
		t.Fatalf("shape %d x %d", ds.NumSamples(), ds.NumAttributes())
	}
	var nnz int
	for j := 0; j < ds.NumSamples(); j++ {
		nnz += len(ds.Sample(j))
	}
	got := float64(nnz) / (50 * 2000)
	if math.Abs(got-0.05) > 0.01 {
		t.Errorf("empirical density %v, want ≈0.05", got)
	}
	// Samples are sorted and within range.
	for j := 0; j < ds.NumSamples(); j++ {
		s := ds.Sample(j)
		for k := 1; k < len(s); k++ {
			if s[k-1] >= s[k] {
				t.Fatalf("sample %d not sorted/unique", j)
			}
		}
		if len(s) > 0 && s[len(s)-1] >= 2000 {
			t.Fatalf("sample %d has out-of-range attribute", j)
		}
	}
	// Determinism.
	ds2 := mustGenerate(t, cfg)
	for j := 0; j < ds.NumSamples(); j++ {
		a, b := ds.Sample(j), ds2.Sample(j)
		if len(a) != len(b) {
			t.Fatalf("sample %d length differs between identical configs", j)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("sample %d differs between identical configs", j)
			}
		}
	}
}

func TestGenerateColumnVariability(t *testing.T) {
	uniform := mustGenerate(t, Config{Samples: 80, Attributes: 5000, Density: 0.02, Seed: 1})
	skewed := mustGenerate(t, Config{Samples: 80, Attributes: 5000, Density: 0.02, ColumnVariability: 1.5, Seed: 1})
	varOf := func(ds *core.InMemoryDataset) float64 {
		var sum, sumSq float64
		n := ds.NumSamples()
		for j := 0; j < n; j++ {
			c := float64(len(ds.Sample(j)))
			sum += c
			sumSq += c * c
		}
		mean := sum / float64(n)
		return sumSq/float64(n) - mean*mean
	}
	if varOf(skewed) <= varOf(uniform) {
		t.Error("ColumnVariability should increase per-column cardinality variance")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("expected error")
	}
}

func TestGenerateFullDensity(t *testing.T) {
	ds := mustGenerate(t, Config{Samples: 3, Attributes: 40, Density: 1, Seed: 2})
	for j := 0; j < 3; j++ {
		if len(ds.Sample(j)) > 40 {
			t.Fatalf("sample %d larger than universe", j)
		}
	}
}

func TestPairWithJaccardHitsTarget(t *testing.T) {
	rng := NewRNG(21)
	for _, target := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		x, y := PairWithJaccard(rng, 1<<40, 2000, target)
		got := core.JaccardPair(sorted(x), sorted(y))
		if math.Abs(got-target) > 0.02 {
			t.Errorf("target %v: got %v", target, got)
		}
	}
	// Out-of-range targets are clamped.
	x, y := PairWithJaccard(rng, 1<<40, 100, 1.5)
	if core.JaccardPair(sorted(x), sorted(y)) != 1 {
		t.Error("target > 1 should clamp to identical sets")
	}
	x, y = PairWithJaccard(rng, 1<<40, 100, -0.5)
	if core.JaccardPair(sorted(x), sorted(y)) != 0 {
		t.Error("target < 0 should clamp to disjoint sets")
	}
}

func sorted(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j] > v {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	return out
}
