package query

import (
	"fmt"

	"biasedres/internal/core"
)

// This file is the time-range half of the query engine: a fused walk that
// buckets the Horvitz–Thompson count/sum estimates by arrival index, plus
// the granularity ladder that picks a bucket width from a requested span
// and a max-points budget. The server's GET /streams/{name}/range endpoint
// is a thin wrapper over these two.

// Bucket is one grouping interval of a range query: HT estimates of the
// arrival count and per-dimension value sums over the arrival-index
// interval [Start, End), with the Lemma 4.1 variance of the count. Buckets
// with no resident sample points report zero mass — for old intervals this
// means "fully decayed", not "provably empty".
type Bucket struct {
	Start    uint64    `json:"start"`          // first arrival index of the bucket, inclusive
	End      uint64    `json:"end"`            // one past the last arrival index, exclusive
	Count    float64   `json:"count"`          // HT estimate of the number of arrivals in [Start, End)
	Variance float64   `json:"variance"`       // Lemma 4.1 variance of Count
	Sums     []float64 `json:"sums,omitempty"` // HT estimate of per-dimension value sums
	Mean     []float64 `json:"mean,omitempty"` // Sums/Count; nil without sample mass or sums
}

// RangeTier names the tier of a tiered stream that served a range read.
// Fields are in key order, as are RangeResult's: the body is pinned byte
// for byte (internal/federation/testdata/bodies).
type RangeTier struct {
	Horizon float64 `json:"horizon"`
	Index   int     `json:"index"`
	Lambda  float64 `json:"lambda"`
}

// RangeResult is the GET /streams/{name}/range body: the arrival-index
// range [Start, End) served at stream position T, the bucket width chosen
// for it, and one bucket per width step, empty buckets included.
type RangeResult struct {
	Buckets     []Bucket   `json:"buckets"`
	End         uint64     `json:"end"`
	Granularity uint64     `json:"granularity"`
	Start       uint64     `json:"start"`
	T           uint64     `json:"t"`
	Tier        *RangeTier `json:"tier,omitempty"`
}

// granularitySteps is the 1-2-5 ladder of bucket widths, in arrival counts.
// Dashboards converge on this ladder because consecutive steps differ by at
// most 2.5×, so the chosen width never lands far from span/maxPoints while
// staying human-readable.
var granularityBases = [...]uint64{1, 2, 5}

// GranularityFor returns the smallest 1-2-5 bucket width that covers a span
// of `span` arrivals within at most maxPoints buckets. maxPoints < 1 is
// treated as 1.
func GranularityFor(span uint64, maxPoints int) uint64 {
	if span == 0 {
		return 1
	}
	if maxPoints < 1 {
		maxPoints = 1
	}
	budget := uint64(maxPoints)
	for mult := uint64(1); ; mult *= 10 {
		for _, b := range granularityBases {
			step := b * mult
			if step/mult != b { // overflow: fall through to exact division
				break
			}
			if (span+step-1)/step <= budget {
				return step
			}
		}
		if mult > span { // ladder exhausted without overflow risk margin
			break
		}
	}
	// Unreachable for uint64 spans in practice; exact ceiling as fallback.
	return (span + budget - 1) / budget
}

// AccumulateBuckets runs one fused walk over the snapshot, folding every
// resident with arrival index in [start, end) into its bucket of width
// step. All ceil((end-start)/step) buckets are returned, empty ones
// included, so callers can render a gap-free series. The final bucket may
// be clipped short by end.
//
// Like Accumulate, each resident contributes weight w = 1/p(r,t) to
// its bucket's count, (w-1)/p to the count variance (Lemma 4.1), and
// Values[d]/p to the sums. Each bucket with sample mass and sums gets its
// per-dimension means.
func AccumulateBuckets(snap *core.Snapshot, start, end, step uint64, dim int) ([]Bucket, error) {
	if start == 0 {
		return nil, fmt.Errorf("query: range start must be >= 1 (arrival indices are 1-based)")
	}
	if end <= start {
		return nil, fmt.Errorf("query: empty range [%d, %d)", start, end)
	}
	if step == 0 {
		return nil, fmt.Errorf("query: bucket width must be >= 1")
	}
	span := end - start
	nb := (span + step - 1) / step
	buckets := make([]Bucket, nb)
	for i := range buckets {
		buckets[i].Start = start + uint64(i)*step
		buckets[i].End = buckets[i].Start + step
		if buckets[i].End > end {
			buckets[i].End = end
		}
		if dim > 0 {
			buckets[i].Sums = make([]float64, dim)
		}
	}
	t := snap.T
	for i := range snap.Points {
		p := &snap.Points[i]
		if p.Index == 0 || p.Index > t || p.Index < start || p.Index >= end {
			continue
		}
		pr := snap.Probs[i]
		if pr <= 0 {
			continue
		}
		b := &buckets[(p.Index-start)/step]
		w := 1 / pr
		b.Count += w
		b.Variance += (w - 1) / pr
		for d := 0; d < dim && d < len(p.Values); d++ {
			b.Sums[d] += p.Values[d] / pr
		}
	}
	for i := range buckets {
		b := &buckets[i]
		if b.Count > 0 && len(b.Sums) > 0 {
			b.Mean = make([]float64, len(b.Sums))
			for d := range b.Sums {
				b.Mean[d] = b.Sums[d] / b.Count
			}
		}
	}
	return buckets, nil
}
