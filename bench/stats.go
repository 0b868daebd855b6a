package main

import (
	"math"
	"sort"
)

// summary describes one timing or rate as the ISSUE asks every metric to
// be reported: median, quartiles, extremes and the sample count.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	// Samples are the values in the order they were measured (kept for
	// metrics that are one run's repetitions, so a slow phase of the host
	// can be seen in a results file).
	Samples []float64 `json:"samples,omitempty"`
}

// summarize computes the summary of xs. Quartiles follow Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), because that is
// what the driver uses to judge run-to-run spread.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 1),
		Median: quantile(s, 2),
		Q3:     quantile(s, 3),
		Max:    s[len(s)-1],
	}
}

// quantile returns the i'th quartile cut point (i in 1..3) of the sorted
// sample s by the exclusive method.
func quantile(s []float64, i int) float64 {
	m := len(s)
	if m == 1 {
		return s[0]
	}
	j := i * (m + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := i*(m+1) - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the inter-quartile distance as a share of the median: the
// run-to-run steadiness figure the bounds in BENCHMARK.json are set from.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// percentile returns the p'th percentile (0 < p < 1) of xs by nearest rank.
// The choosing-metrics guide lets it be printed when at least ten samples
// lie beyond it: for the 99th, 1000 samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(p*float64(len(s))))-1)]
}
