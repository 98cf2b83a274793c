package main

import (
	"math"
	"slices"
)

// finite reports whether v is a number a metric may carry.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// quantile returns the q-quantile (0..1) of v by nearest rank; 0 for an
// empty sample. v is not modified.
func quantile[T ~int64 | float64](v []T, q float64) T {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median[T ~int64 | float64](v []T) T { return quantile(v, 0.5) }

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the driver computes
// spreads from. It needs two values or more.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
