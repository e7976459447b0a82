package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// Tail is a latency tail summary: the highest percentile of a sample
// set that still has at least tailMinBeyond samples beyond it, with the
// sample count it was taken from. Pct is 0 when the set is too small to
// have such a percentile; Value is then the maximum.
type Tail struct {
	Pct   float64 `json:"pct"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// TailOf returns the tail summary of xs. With n samples the reported
// value is the order statistic with tailMinBeyond samples above it,
// the (n-10)/n percentile.
func TailOf(xs []float64) Tail {
	n := len(xs)
	if n == 0 {
		return Tail{}
	}
	s := sorted(xs)
	if n <= tailMinBeyond {
		return Tail{Value: s[n-1], N: n}
	}
	idx := n - tailMinBeyond - 1
	return Tail{Pct: 100 * float64(idx+1) / float64(n), Value: s[idx], N: n}
}

// Median returns the median of xs (0 for an empty set).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty set).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
