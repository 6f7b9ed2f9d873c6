package main

import (
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the value is one or two outliers, not a
// property of the distribution, and is reported as null instead.
const minBeyond = 10

// stat is one reported value: the median across the run's windows (or
// passes) with the extremes kept as its spread. A metric measured once has
// N == 1 and Min == Max == Median.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// one wraps a single measurement.
func one(v float64) *stat { return &stat{Median: v, Min: v, Max: v, N: 1} }

// summarize folds per-window values into a stat. NaN marks a window in
// which the value could not be measured (a percentile without enough
// samples); if any window lacks it the whole metric is null.
func summarize(vals []float64) *stat {
	if len(vals) == 0 {
		return nil
	}
	for _, v := range vals {
		if math.IsNaN(v) {
			return nil
		}
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return &stat{Median: medianSorted(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// spread is the stat's min–max width as a share of its median.
func (s *stat) spread() float64 {
	if s == nil || s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0 < q < 1) of ns by nearest rank, or
// NaN when fewer than minBeyond samples lie beyond it (on the far side from
// the median). ns is sorted in place.
func percentile(ns []int64, q float64) float64 {
	n := len(ns)
	if n == 0 {
		return math.NaN()
	}
	slices.Sort(ns)
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	beyond := n - 1 - idx
	if q < 0.5 {
		beyond = idx
	}
	if beyond < minBeyond {
		return math.NaN()
	}
	return float64(ns[idx])
}

// mean returns the arithmetic mean of ns, NaN if empty. Layer self times
// are differences of means (means add across layers, medians do not).
func mean(ns []int64) float64 {
	if len(ns) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return sum / float64(len(ns))
}

// ratio is a/b, or 0 when b is 0 (a count of nothing out of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
