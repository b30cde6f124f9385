package main

import (
	"math"
	"sort"
)

// samples keeps every stride-th value added, halving itself and doubling
// the stride whenever it fills, so memory stays bounded and the kept
// values stay spread evenly over the whole run.
type samples struct {
	buf    []int64
	stride uint64
	skip   uint64
}

func newSamples(capacity int) *samples {
	return &samples{buf: make([]int64, 0, capacity), stride: 1}
}

func (s *samples) add(v int64) {
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.buf) == cap(s.buf) {
		half := len(s.buf) / 2
		for i := 0; i < half; i++ {
			s.buf[i] = s.buf[2*i+1]
		}
		s.buf = s.buf[:half]
		s.stride *= 2
	}
	s.skip = s.stride - 1
	s.buf = append(s.buf, v)
}

// quantile returns the q-quantile of xs (nearest rank), 0 when empty.
func quantile(xs []int64, q float64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile for xs already in increasing order.
func sortedQuantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the mean of xs, 0 when empty.
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

// jain is Jain's fairness index of xs: 1 when all are equal, 1/n when one
// takes everything.
func jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// digestOf folds a schedule (one value per transmitted packet or
// dequeued entry) into one FNV-1a value for printing.
func digestOf(seq []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range seq {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

// prefix returns the first n values of a schedule, or all of a shorter one.
func prefix(seq []uint64, n int) []uint64 { return seq[:min(n, len(seq))] }

// mismatches counts the positions where got differs from want, plus any
// length difference.
func mismatches(got, want []uint64) int {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	bad := len(got) + len(want) - 2*n
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			bad++
		}
	}
	return bad
}
