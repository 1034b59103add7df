package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail estimated from fewer points is noise.
const minBeyond = 10

// quantile is one percentile of a sample, with the sample size behind it.
type quantile struct {
	Value   float64
	Samples int
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method, or an error when fewer than minBeyond samples lie
// above it. The median is exempt: it needs only one sample. xs is not
// modified.
func percentile(xs []float64, p float64) (quantile, error) {
	n := len(xs)
	if n == 0 {
		return quantile{}, fmt.Errorf("p%g of an empty sample", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return quantile{}, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			p, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile{Value: s[rank-1], Samples: n}, nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
