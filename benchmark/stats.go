package main

import (
	"math"
	"slices"
)

// nearestRank returns the p-quantile of v by the nearest-rank definition:
// the smallest value with at least p·n values at or below it.
func nearestRank(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(v, n=4) computes them (the default exclusive
// method), so spreads read the same here and in any Python check.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return v[0], v[0]
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// geomean is the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}
