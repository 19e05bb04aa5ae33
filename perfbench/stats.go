package main

import (
	"fmt"
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
// An empty sample has median 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean; an empty sample has mean 0.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailStat is the highest percentile a sample supports.
type tailStat struct {
	Pct    float64 // percentile of the reported sample, 0..100
	Value  float64
	Beyond int // samples ranked above Value
	N      int
}

// tail returns the highest percentile of xs that still has at least
// minBeyond samples ranked beyond it: with n sorted samples that is the
// sample at rank n-minBeyond (1-based), i.e. percentile 100·(n-minBeyond)/n.
// A sample too small to leave minBeyond beyond any rank reports its median,
// with Beyond saying how many samples actually lie above it, so a reader
// never mistakes it for a real tail.
func tail(xs []float64, minBeyond int) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sortedCopy(xs)
	if n > minBeyond {
		i := n - 1 - minBeyond
		return tailStat{Pct: 100 * float64(i+1) / float64(n), Value: s[i], Beyond: minBeyond, N: n}
	}
	return tailStat{Pct: 50, Value: median(xs), Beyond: n / 2, N: n}
}

// geomean is the geometric mean of strictly positive ratios.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of an empty sample")
	}
	var logSum float64
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geomean: ratio %v is not a positive finite number", x)
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// residual is the part of an untraced operation no layer accounts for:
// the untraced time minus the sum of the layers' self times. Both sides
// must be the same statistic (means per operation: medians do not add).
func residual(untracedOp float64, selfTimes []float64) float64 {
	r := untracedOp
	for _, t := range selfTimes {
		r -= t
	}
	return r
}

// overheadPct is how much longer the traced operation took than the
// untraced one, in percent of the untraced time.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}
