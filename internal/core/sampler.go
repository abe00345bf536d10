package core

import "biasedres/internal/stream"

// Sampler is the common contract of every reservoir maintenance policy in
// this package. A Sampler consumes a stream one point at a time and holds a
// bounded sample of it; the estimators in internal/query only interact with
// samplers through this interface.
//
// Samplers are not safe for concurrent use; wrap them (see Synchronized) or
// shard streams across samplers when concurrency is needed.
type Sampler interface {
	// Add processes the next arriving stream point. Points must be fed
	// in arrival order. The sampler copies the values of any point it
	// retains; the caller may reuse its buffers once the call returns.
	Add(p stream.Point)

	// Points returns the sampler's current reservoir contents as a
	// read-only view. The slice is owned by the sampler and is
	// invalidated by the next Add; callers that need to keep it must
	// use Sample.
	Points() []stream.Point

	// Sample returns a copy of the reservoir contents.
	Sample() []stream.Point

	// Len returns the current number of points in the reservoir.
	Len() int

	// Capacity returns the maximum number of points the reservoir will
	// hold.
	Capacity() int

	// Processed returns t, the number of stream points seen so far.
	Processed() uint64

	// InclusionProb returns p(r,t): the probability that the r-th
	// stream point is currently present in the reservoir, evaluated at
	// the current stream position t = Processed(). It returns 0 when
	// r is 0 or exceeds t. Estimators divide by this value
	// (Horvitz-Thompson), so implementations must return the analytic
	// form proved for their policy.
	InclusionProb(r uint64) float64
}

// Fill returns the sampler's fill fraction F(t) in [0,1], the quantity that
// drives the coin flip in Algorithms 2.1 and 3.1 and the y-axis of the
// paper's Figure 1.
func Fill(s Sampler) float64 {
	c := s.Capacity()
	if c <= 0 {
		return 0
	}
	return float64(s.Len()) / float64(c)
}

// own returns p with its values copied into an exact-length slice the
// sampler owns. It is called where a point enters a reservoir, and only
// there: skipped and ejected points are never copied. An owned slice is
// never written after it is created, because published Snapshots share it.
func own(p stream.Point) stream.Point {
	if p.Values != nil {
		v := make([]float64, len(p.Values))
		copy(v, p.Values)
		p.Values = v
	}
	return p
}

func copyPoints(pts []stream.Point) []stream.Point {
	out := make([]stream.Point, len(pts))
	copy(out, pts)
	return out
}
