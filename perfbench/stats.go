package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the two closest ranks. xs need not be sorted; it is
// not modified. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond reports how many of n samples lie strictly above the q-quantile's
// rank: the number of samples a tail percentile rests on.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
