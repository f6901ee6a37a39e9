package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one reported measurement. Timings over repetitions carry their
// quartiles and sample count beside the median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// summary reports the median of xs with its quartiles and sample count.
func summary(xs []float64, unit string) metric {
	return metric{Value: median(xs), Unit: unit, Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// percentile reports the q-quantile of xs with the sample count.
func percentile(xs []float64, q float64, unit string) metric {
	return metric{Value: quantile(xs, q), Unit: unit, N: len(xs)}
}

func scalar(v float64, unit string) metric { return metric{Value: v, Unit: unit} }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
