// Package stream provides the data-stream substrate for the biased reservoir
// sampling library: the Point record type, the Stream interface, synthetic
// generators matching the workloads of the paper's evaluation (Section 5.1),
// a recent-horizon ground-truth buffer, and CSV interchange.
package stream

import "fmt"

// Point is one element of a data stream: a multi-dimensional numeric record
// with an arrival index, an optional class label and an optional weight.
//
// Index is the 1-based arrival position r of the point; the paper's bias
// function f(r,t) and inclusion probability p(r,t) are expressed in terms of
// it. Samplers never reorder or renumber points, so Index doubles as the
// timestamp the paper notes must be maintained for horizon queries.
type Point struct {
	// Index is the 1-based arrival position of the point in the stream.
	Index uint64
	// Values holds the point's coordinates.
	Values []float64
	// Label is an application-defined class identifier (e.g. intrusion
	// type or generating cluster). Negative means unlabeled.
	Label int
	// Weight is an application-defined multiplier used by weighted
	// queries; generators set it to 1.
	Weight float64
}

// Age returns t - r: how many arrivals ago the point arrived, as seen at
// stream position t. It returns 0 if the point has not arrived yet (r > t).
func (p Point) Age(t uint64) uint64 {
	if p.Index > t {
		return 0
	}
	return t - p.Index
}

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p.Values) }

// Clone returns a deep copy of the point. Samplers copy the values of the
// points they retain, so a caller that reuses its value buffers needs no
// clone to feed one; Clone is for a point the caller keeps beyond the
// next reuse of its buffers.
func (p Point) Clone() Point {
	q := p
	q.Values = append([]float64(nil), p.Values...)
	return q
}

// String renders a short human-readable description, used in error messages
// and example output.
func (p Point) String() string {
	return fmt.Sprintf("Point(r=%d label=%d dim=%d)", p.Index, p.Label, len(p.Values))
}
