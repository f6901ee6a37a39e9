// Package stats provides the small statistical toolkit used by the
// benchmark harness: means, standard deviations and 95% confidence
// intervals computed the way the paper reports them ("we calculate 95%
// confidence intervals for the reported mean values by assuming the batch
// times are normally distributed samples", Fig. 2 caption), plus a timing
// helper that discards warm-up batches as the paper discards the first
// three batches of each run.
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample of measurements.
type Summary struct {
	// Count is the number of observations.
	Count int
	// Mean is the arithmetic mean.
	Mean float64
	// StdDev is the sample standard deviation (n−1 denominator).
	StdDev float64
	// CI95 is the half-width of the 95% confidence interval of the mean
	// under a normal approximation (1.96·σ/√n).
	CI95 float64
	// Min and Max are the extreme observations.
	Min, Max float64
}

// z95 is the 97.5th percentile of the standard normal distribution.
const z95 = 1.959963984540054

// Summarize computes summary statistics of xs. An empty input yields a
// zero-valued summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
		s.CI95 = z95 * s.StdDev / math.Sqrt(float64(len(xs)))
	}
	return s
}

// String formats the summary as "mean ± ci95 (n=count)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95, s.Count)
}

// DiscardWarmup returns xs without its first `warmup` elements; if fewer
// elements exist, an empty slice is returned. The paper discards the first
// three batches of each run to exclude start-up costs.
func DiscardWarmup(xs []float64, warmup int) []float64 {
	if warmup < 0 {
		warmup = 0
	}
	if warmup >= len(xs) {
		return nil
	}
	return xs[warmup:]
}

// BatchSummary summarises per-batch times after discarding warm-up batches,
// matching the methodology of Fig. 2b ("averaged across eight batches, not
// considering the first three batches").
func BatchSummary(batchSeconds []float64, warmup int) Summary {
	return Summarize(DiscardWarmup(batchSeconds, warmup))
}
