// Package synth generates the synthetic datasets used by the paper's
// evaluation (Section V-A3): indicator matrices where "each element ... is
// present with a specified probability p, independently for all elements",
// plus variants with variable per-column density that mimic the
// high-variability BIGSI data. Generation is deterministic for a given
// seed so experiments are reproducible.
package synth

import (
	"fmt"
	"math"

	"genomeatscale/internal/core"
)

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64)
// used throughout the synthetic generators. It is intentionally independent
// of math/rand so that dataset contents stay stable across Go releases.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with the given value.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		//gas:invariant documented RNG contract: n must be positive; all callers pass literals or validated config values
		panic(fmt.Sprintf("synth: Intn(%d)", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		//gas:invariant documented RNG contract: n must be positive; all callers pass literals or validated config values
		panic("synth: Uint64n(0)")
	}
	return r.Uint64() % n
}

// Poisson draws from a Poisson distribution with the given mean using
// inversion for small means and a normal approximation for large ones.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation with continuity correction.
	n := int(math.Round(mean + math.Sqrt(mean)*r.Normal()))
	if n < 0 {
		return 0
	}
	return n
}

// Normal returns a standard normal draw (Box–Muller).
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Config describes a synthetic indicator matrix.
type Config struct {
	// Samples is n, the number of data samples (columns).
	Samples int
	// Attributes is m, the size of the attribute universe (rows).
	Attributes uint64
	// Density is the probability p that a given (attribute, sample) pair is
	// present, as in the paper's synthetic experiments.
	Density float64
	// ColumnVariability skews per-column densities: 0 gives uniform columns
	// (Kingsford-like), larger values draw per-column densities from a
	// log-normal multiplier with that σ (BIGSI-like high variability).
	ColumnVariability float64
	// Seed makes generation deterministic.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Samples <= 0 {
		return fmt.Errorf("synth: Samples must be positive, got %d", c.Samples)
	}
	if c.Attributes == 0 {
		return fmt.Errorf("synth: Attributes must be positive")
	}
	if c.Density < 0 || c.Density > 1 {
		return fmt.Errorf("synth: Density must be in [0,1], got %v", c.Density)
	}
	if c.ColumnVariability < 0 {
		return fmt.Errorf("synth: ColumnVariability must be non-negative, got %v", c.ColumnVariability)
	}
	return nil
}

// Generate builds a synthetic dataset. Each sample's cardinality is drawn
// as Poisson(m · p_col); attribute values are sampled uniformly without
// replacement, which for the hypersparse regimes of interest is equivalent
// to independent Bernoulli entries.
func Generate(cfg Config) (*core.InMemoryDataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := NewRNG(cfg.Seed ^ 0xA5A5A5A5DEADBEEF)
	samples := make([][]uint64, cfg.Samples)
	names := make([]string, cfg.Samples)
	for j := 0; j < cfg.Samples; j++ {
		names[j] = fmt.Sprintf("synthetic-%d", j)
		density := cfg.Density
		if cfg.ColumnVariability > 0 {
			density *= math.Exp(cfg.ColumnVariability * rng.Normal())
			if density > 1 {
				density = 1
			}
		}
		mean := float64(cfg.Attributes) * density
		count := rng.Poisson(mean)
		if uint64(count) > cfg.Attributes {
			count = int(cfg.Attributes)
		}
		seen := make(map[uint64]struct{}, count)
		vals := make([]uint64, 0, count)
		for len(vals) < count {
			v := rng.Uint64n(cfg.Attributes)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			vals = append(vals, v)
		}
		samples[j] = vals
	}
	return core.NewInMemoryDataset(names, samples, cfg.Attributes)
}

// PairWithJaccard builds two samples over [0, attributes) whose exact
// Jaccard similarity is close to the requested target, by sharing a
// fraction of a common pool. It is used by the accuracy experiments that
// compare exact Jaccard with MinHash estimates across a similarity range.
func PairWithJaccard(rng *RNG, attributes uint64, size int, target float64) ([]uint64, []uint64) {
	if target < 0 {
		target = 0
	}
	if target > 1 {
		target = 1
	}
	// |X∩Y| = s, |X|=|Y|=size ⇒ J = s / (2·size − s) ⇒ s = 2·size·J/(1+J).
	shared := int(math.Round(2 * float64(size) * target / (1 + target)))
	if shared > size {
		shared = size
	}
	pool := make(map[uint64]struct{})
	draw := func() uint64 {
		for {
			v := rng.Uint64n(attributes)
			if _, dup := pool[v]; !dup {
				pool[v] = struct{}{}
				return v
			}
		}
	}
	x := make([]uint64, 0, size)
	y := make([]uint64, 0, size)
	for i := 0; i < shared; i++ {
		v := draw()
		x = append(x, v)
		y = append(y, v)
	}
	for len(x) < size {
		x = append(x, draw())
	}
	for len(y) < size {
		y = append(y, draw())
	}
	return x, y
}

// WordOccupancyRows generates per-column sorted row-index lists whose
// packed form (64-bit masks) stores roughly `occupancy` of the word rows
// per column: each occupied 64-row segment receives three ascending bits.
// It is the fixture of the hybrid popcount-kernel benchmarks in
// bench_test.go, which sweep exactly this word-level occupancy — the
// quantity the dense-storage threshold acts on.
func WordOccupancyRows(r *RNG, rows, cols int, occupancy float64) [][]int {
	rowsPerCol := make([][]int, cols)
	wordRows := rows / 64
	for j := range rowsPerCol {
		for w := 0; w < wordRows; w++ {
			if r.Float64() >= occupancy {
				continue
			}
			base := w * 64
			for _, bit := range []int{r.Intn(21), 21 + r.Intn(21), 42 + r.Intn(21)} {
				rowsPerCol[j] = append(rowsPerCol[j], base+bit)
			}
		}
	}
	return rowsPerCol
}
