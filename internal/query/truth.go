package query

import (
	"fmt"
	"sort"

	"biasedres/internal/stream"
)

// Truth computes exact answers to the horizon queries from a
// stream.HorizonBuffer that has observed every point. Experiment drivers
// tee the stream into one Truth and one or more samplers, then compare
// estimates against these exact values.
type Truth struct {
	buf *stream.HorizonBuffer
}

// NewTruth returns a Truth able to answer queries up to maxHorizon.
func NewTruth(maxHorizon int) (*Truth, error) {
	buf, err := stream.NewHorizonBuffer(maxHorizon)
	if err != nil {
		return nil, err
	}
	return &Truth{buf: buf}, nil
}

// Observe records one arriving point; call it for every stream point in
// order.
func (tr *Truth) Observe(p stream.Point) { tr.buf.Observe(p) }

// Now returns the current stream position t.
func (tr *Truth) Now() uint64 { return tr.buf.Now() }

// Count returns the exact number of points among the last h arrivals.
func (tr *Truth) Count(h uint64) (float64, error) {
	n, err := tr.buf.Recent(h, func(stream.Point) {})
	return float64(n), err
}

// Sum returns the exact Σ X[dim] over the last h arrivals.
func (tr *Truth) Sum(h uint64, dim int) (float64, error) {
	var sum float64
	_, err := tr.buf.Recent(h, func(p stream.Point) {
		if dim >= 0 && dim < len(p.Values) {
			sum += p.Values[dim]
		}
	})
	return sum, err
}

// Average returns the exact per-dimension average of the last h arrivals.
func (tr *Truth) Average(h uint64, dim int) ([]float64, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("query: truth average needs dim > 0, got %d", dim)
	}
	sums := make([]float64, dim)
	n, err := tr.buf.Recent(h, func(p stream.Point) {
		for d := 0; d < dim && d < len(p.Values); d++ {
			sums[d] += p.Values[d]
		}
	})
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("query: no points in horizon %d", h)
	}
	for d := range sums {
		sums[d] /= float64(n)
	}
	return sums, nil
}

// ClassDistribution returns the exact fractional class distribution of the
// last h arrivals.
func (tr *Truth) ClassDistribution(h uint64) (map[int]float64, error) {
	counts := make(map[int]float64)
	n, err := tr.buf.Recent(h, func(p stream.Point) { counts[p.Label]++ })
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("query: no points in horizon %d", h)
	}
	for k := range counts {
		counts[k] /= float64(n)
	}
	return counts, nil
}

// RangeSelectivity returns the exact fraction of the last h arrivals inside
// rect.
func (tr *Truth) RangeSelectivity(h uint64, rect Rect) (float64, error) {
	var inside float64
	n, err := tr.buf.Recent(h, func(p stream.Point) {
		if rect.Contains(p) {
			inside++
		}
	})
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("query: no points in horizon %d", h)
	}
	return inside / float64(n), nil
}

// Evaluate computes the exact value of an arbitrary linear query over the
// retained suffix of the stream. The query's coefficients must vanish
// outside the buffer's capacity, otherwise the result would be truncated;
// horizon-restricted queries built by Count/Sum/ClassCount/RangeCount with
// h <= capacity satisfy this.
func (tr *Truth) Evaluate(q Linear) float64 {
	t := tr.buf.Now()
	var sum float64
	for _, p := range tr.buf.Snapshot() {
		sum += q.Coeff(p, t) * q.Value(p)
	}
	return sum
}

// TrueVariance evaluates Lemma 4.1 exactly over a fully known stream
// prefix: Var[H(t)] = Σ_{r=1..t} c_r²·h(X_r)²·(1/p(r,t) − 1). The prob
// function must return p(r,t) for the sampling policy under analysis.
// Tests use it to validate EstimateWithVarianceOn and the paper's qualitative
// claim that recent-horizon queries have low variance under biased sampling.
func TrueVariance(pts []stream.Point, t uint64, q Linear, prob func(r uint64) float64) (float64, error) {
	var sum float64
	for _, p := range pts {
		c := q.Coeff(p, t)
		if c == 0 {
			continue
		}
		pr := prob(p.Index)
		if pr <= 0 {
			return 0, fmt.Errorf("query: point %d has inclusion probability %v but nonzero coefficient", p.Index, pr)
		}
		v := q.Value(p)
		sum += c * c * v * v * (1/pr - 1)
	}
	return sum, nil
}

// TrueQuantile computes the exact q-quantile of dimension dim over the
// points for which the horizon coefficient is 1 at stream position t; the
// Truth type calls it with its retained suffix.
func TrueQuantile(pts []stream.Point, t, h uint64, dim int, q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("query: quantile needs 0 < q < 1, got %v", q)
	}
	horizon := horizonCoeff(h)
	var vals []float64
	for _, p := range pts {
		if horizon(p, t) == 0 || dim < 0 || dim >= len(p.Values) {
			continue
		}
		vals = append(vals, p.Values[dim])
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("query: no points in horizon %d", h)
	}
	sort.Float64s(vals)
	idx := int(q * float64(len(vals)))
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx], nil
}

// Quantile returns the exact q-quantile over the last h arrivals retained
// by the truth buffer.
func (tr *Truth) Quantile(h uint64, dim int, q float64) (float64, error) {
	return TrueQuantile(tr.buf.Snapshot(), tr.buf.Now(), h, dim, q)
}
