package main

import "sort"

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method); with fewer than two values both are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailPercentile returns the highest of the 99th, 95th, 90th, 75th and 50th
// percentiles (nearest rank) that has at least ten samples above it, and
// which one it is; ok is false when there are fewer than twenty samples.
func tailPercentile(xs []float64) (value float64, pct int, ok bool) {
	s := sorted(xs)
	for _, p := range []int{99, 95, 90, 75, 50} {
		k := (len(s)*p + 99) / 100 // nearest rank, 1-based
		if k >= 1 && len(s)-k >= 10 {
			return s[k-1], p, true
		}
	}
	return 0, 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
