package main

import (
	"math"
	"sort"
)

// dist is a set of samples (latencies in µs, sizes, ratios) with the
// summaries the benchmark reports. Every reported value carries the
// sample count it was computed from.
type dist []float64

// percentile returns the q-th percentile (0 ≤ q ≤ 100) by linear
// interpolation between the closest ranks, the numpy default. An empty
// set has no percentile: it returns 0, and callers report n = 0.
func (d dist) percentile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method), so spreads printed here match the ones a reader computes from
// the same runs.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// CPython's exclusive method, integer for integer: j is the 1-based
		// rank i*(n+1)/4 clamped to [1, n-1], delta the remainder in
		// quarters (negative or above 4 at the clamped ends, where Python
		// extrapolates).
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// interval is a half-open time span [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}
