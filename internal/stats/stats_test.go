package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.CI95 != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.Count != 1 || s.Mean != 42 || s.StdDev != 0 || s.CI95 != 0 || s.Min != 42 || s.Max != 42 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	wantCI := 1.959963984540054 * want / math.Sqrt(8)
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Errorf("CI95 = %v, want %v", s.CI95, wantCI)
	}
	if s.String() == "" {
		t.Error("String should not be empty")
	}
}

func TestDiscardWarmup(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := DiscardWarmup(xs, 2); len(got) != 2 || got[0] != 30 {
		t.Errorf("DiscardWarmup = %v", got)
	}
	if got := DiscardWarmup(xs, 10); got != nil {
		t.Errorf("over-discard = %v", got)
	}
	if got := DiscardWarmup(xs, -1); len(got) != 4 {
		t.Errorf("negative warmup = %v", got)
	}
}

func TestBatchSummaryMatchesPaperMethodology(t *testing.T) {
	// First three batches are start-up noise, the rest are steady.
	batches := []float64{100, 90, 80, 10, 10, 10, 10, 10, 10, 10, 10}
	s := BatchSummary(batches, 3)
	if s.Count != 8 {
		t.Errorf("Count = %d, want 8", s.Count)
	}
	if s.Mean != 10 {
		t.Errorf("Mean = %v, want 10", s.Mean)
	}
}

// Property: the mean lies within [Min, Max] and the CI is non-negative.
func TestSummarizeInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.Count == 0
		}
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9 && s.CI95 >= 0 && s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
