package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
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

// mean is the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailBeyond is how many samples a reported tail must leave above it.
const tailBeyond = 10

// tail is a timing's tail as the benchmark reports it: the highest
// percentile with at least tailBeyond samples beyond it, the value at that
// percentile, and the sample count it was taken from.
type tail struct {
	Value      float64
	Percentile int
	N          int
}

// tailOf applies the tail rule to xs. With n samples sorted ascending,
// the sample of rank n−tailBeyond (1-based) is the highest one that still
// has tailBeyond samples above it; its percentile is the share of samples
// at or below it, rounded down. Fewer than tailBeyond+1 samples cannot
// meet the rule, so the maximum is reported at p100 and the count shows
// why.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, N: n}
	}
	rank := n - tailBeyond // 1-based
	return tail{Value: s[rank-1], Percentile: int(math.Floor(100 * float64(rank) / float64(n))), N: n}
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
