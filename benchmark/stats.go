package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of a
// sorted sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailSupported reports whether a sample of n has at least ten values
// beyond its p-quantile — the rule for which percentile may be
// reported as the tail.
func tailSupported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= 10
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

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

// quartiles cuts xs as Python's statistics.quantiles(xs, n=4) does
// (the exclusive method), which is how the acceptance driver measures
// spread; a sample of one is its own three quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// within returns the part of the sorted times that lies in [from, to).
func within(times []int64, from, to int64) []int64 {
	lo := sort.Search(len(times), func(i int) bool { return times[i] >= from })
	hi := sort.Search(len(times), func(i int) bool { return times[i] >= to })
	return times[lo:hi]
}

// quietest finds the longest interval inside [from, to] in which at
// most strays of the sorted times — all of which lie in [from, to) —
// fall, and returns its ends. The ends of the window count as interval
// ends. With strays = 0 it is the longest interval that holds no time.
func quietest(in []int64, from, to int64, strays int) (start, end int64) {
	// at(i) walks from, in[0], ..., in[len-1], to.
	at := func(i int) int64 {
		switch {
		case i <= 0:
			return from
		case i > len(in):
			return to
		}
		return in[i-1]
	}
	for i := 0; i+strays+1 <= len(in)+1; i++ {
		if a, b := at(i), at(i+strays+1); b-a > end-start {
			start, end = a, b
		}
	}
	if end == start { // fewer than strays+1 times: the whole window is quiet
		return from, to
	}
	return start, end
}
