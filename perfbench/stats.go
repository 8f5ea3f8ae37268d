package main

import (
	"math"
	"sort"
)

// failedSample stands in for an op that failed or was refused: it sorts
// above every measured latency, so it counts as missing every percentile.
const failedSample = math.MaxInt64

// percentile is an exact nearest-rank percentile of raw samples.
type percentile struct {
	Value  int64 // the sample at rank ceil(p/100 * n)
	N      int   // samples in the set
	Beyond int   // samples strictly above Value
}

// percentileOf returns the nearest-rank p-th percentile of samples,
// which it sorts in place. An empty set yields the zero value.
func percentileOf(samples []int64, p float64) percentile {
	n := len(samples)
	if n == 0 {
		return percentile{}
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v := samples[rank-1]
	beyond := n - sort.Search(n, func(i int) bool { return samples[i] > v })
	return percentile{Value: v, N: n, Beyond: beyond}
}

// windowPercentiles cuts samples, in the order they were taken, into
// whole windows of w and returns each window's exact p-th percentile.
// The median of these moves with a slow phase of the host only once the
// phase takes more than half the windows, where a percentile over all
// samples moves with every share of the run a slow phase takes.
func windowPercentiles(samples []int64, w int, p float64) []float64 {
	var out []float64
	win := make([]int64, w)
	for i := 0; i+w <= len(samples); i += w {
		copy(win, samples[i:i+w]) // percentileOf sorts
		out = append(out, float64(percentileOf(win, p).Value))
	}
	return out
}

// median returns the middle of values (mean of the two middle ones for
// an even count), sorting a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of values into four groups by
// the same rule as Python's statistics.quantiles(values, n=4), whose
// default method is "exclusive". It needs at least two values.
func quartiles(values []float64) [3]float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	var out [3]float64
	if ld < 2 {
		return out
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// spread is the interquartile range of values as a share of their
// median: the steadiness figure the benchmark's bounds are held to.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q := quartiles(values)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// secondHalf returns the later half of a run's per-unit samples.
func secondHalf(values []float64) []float64 {
	return values[len(values)/2:]
}
