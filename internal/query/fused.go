package query

import (
	"fmt"
	"math"
	"sort"

	"biasedres/internal/core"
)

// This file is the query engine. Every estimator evaluates against an
// immutable core.Snapshot (points + precomputed inclusion probabilities),
// never a live Sampler, so a query costs zero sampler locks and zero
// InclusionProb calls; a caller holding a Sampler takes core.SnapshotOf
// once. Every recent-horizon statistic comes out of one fused walk,
// Accumulate, which gathers the count, per-dimension sums, per-class
// counts/sums, the range numerator and the Lemma 4.1 variance terms
// together; the statistics are Accum methods. EstimateOn and
// EstimateWithVarianceOn evaluate an arbitrary Linear query, and QuantileOn
// the one non-linear statistic.
//
// Every kernel reproduces the per-statistic estimators it replaced bit for
// bit: the same skip conditions, the same operation order inside each
// accumulator, the same association of multiplies and divides (e.g. the
// global sums use v/pr while the grouped sums use w·v with w = 1/pr). The
// regression tests in fused_test.go hold the engine to that.

// ClassAcc is one label's share of a fused walk: its Horvitz–Thompson
// count, the Lemma 4.1 variance of that count, and per-dimension weighted
// value sums.
type ClassAcc struct {
	Count float64   `json:"count"`
	Var   float64   `json:"var"`
	Sums  []float64 `json:"sums,omitempty"`
}

// Accum is everything one fused walk over a snapshot produces for a
// recent-horizon workload. Derive final statistics with the methods
// (Average, Distribution, GroupAverage, GroupCount, TopK, Selectivity) —
// they only combine accumulator fields and never re-read the snapshot.
//
// Accum is also the body of GET /streams/{name}/accum, which DecodeAccum
// reads, and the unit a federation coordinator merges; encoding/json
// writes the int class labels as string object keys and refuses
// non-integer keys when decoding.
type Accum struct {
	// T is the stream position of the snapshot the walk ran over.
	T uint64 `json:"t"`
	// Horizon is the recent-horizon restriction (0 = whole stream).
	Horizon uint64 `json:"horizon"`
	// Dim is how many leading dimensions were accumulated.
	Dim int `json:"dim"`

	// Count estimates the number of stream points in the horizon
	// (Equation 8 with h(X) = 1).
	Count float64 `json:"count"`
	// CountVar is the Horvitz–Thompson estimate of Count's variance
	// (Lemma 4.1).
	CountVar float64 `json:"count_var"`
	// Sums[d] estimates the horizon's sum over dimension d.
	Sums []float64 `json:"sums,omitempty"`
	// Classes maps each label with sample mass in the horizon to its
	// per-class accumulators.
	Classes map[int]*ClassAcc `json:"classes,omitempty"`

	// HasRange marks a walk that was given a rect:
	// RangeNum/RangeVar carry the range-selectivity numerator — the
	// estimated in-horizon count inside the rect — and its Lemma 4.1
	// variance. Zero-valued otherwise.
	HasRange bool    `json:"has_range,omitempty"`
	RangeNum float64 `json:"range_num,omitempty"`
	RangeVar float64 `json:"range_var,omitempty"`
}

// Accumulate is the fused walk: one pass over snap computing every Accum
// statistic for horizon h. dim is how many leading dimensions to sum;
// dim <= 0 accumulates no per-dimension sums (count and class statistics
// only). A non-nil rect additionally accumulates the Horvitz–Thompson count
// (and Lemma 4.1 variance) of the in-horizon points inside it, the
// range-selectivity numerator.
func Accumulate(snap *core.Snapshot, h uint64, dim int, rect *Rect) *Accum {
	a := &Accum{T: snap.T, Horizon: h, Dim: dim, Classes: make(map[int]*ClassAcc)}
	if dim > 0 {
		a.Sums = make([]float64, dim)
	}
	a.HasRange = rect != nil
	t := snap.T
	for i := range snap.Points {
		p := &snap.Points[i]
		if p.Index == 0 || p.Index > t {
			continue
		}
		if h > 0 && t-p.Index >= h {
			continue
		}
		pr := snap.Probs[i]
		if pr <= 0 {
			continue
		}
		w := 1 / pr
		a.Count += w
		a.CountVar += (w - 1) / pr
		for d := 0; d < dim && d < len(p.Values); d++ {
			a.Sums[d] += p.Values[d] / pr
		}
		if rect != nil && rect.Contains(*p) {
			a.RangeNum += w
			a.RangeVar += (w - 1) / pr
		}
		ca := a.Classes[p.Label]
		if ca == nil {
			ca = &ClassAcc{}
			if dim > 0 {
				ca.Sums = make([]float64, dim)
			}
			a.Classes[p.Label] = ca
		}
		ca.Count += w
		ca.Var += (w - 1) / pr
		for d := 0; d < dim && d < len(p.Values); d++ {
			ca.Sums[d] += w * p.Values[d]
		}
	}
	return a
}

// Average returns the per-dimension horizon average Sums[d]/Count — the
// paper's sum-query experiments report exactly this quantity (Figures 2, 3,
// 6). It errors when the walk accumulated no sums (dim <= 0) or no sample
// mass.
func (a *Accum) Average() ([]float64, error) {
	if a.Dim <= 0 {
		return nil, fmt.Errorf("query: horizon average needs dim > 0, got %d", a.Dim)
	}
	if a.Count <= 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d (estimated count %v)", a.Horizon, a.Count)
	}
	out := make([]float64, a.Dim)
	for d := range out {
		out[d] = a.Sums[d] / a.Count
	}
	return out, nil
}

// Distribution returns each label's estimated fraction of the horizon —
// Figure 4's class-distribution query. The accumulators are not mutated.
func (a *Accum) Distribution() (map[int]float64, error) {
	if a.Count <= 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d", a.Horizon)
	}
	out := make(map[int]float64, len(a.Classes))
	for label, ca := range a.Classes {
		out[label] = ca.Count / a.Count
	}
	return out, nil
}

// GroupAverage returns each label's per-dimension average, answering "what
// does each class look like right now?". Labels with no sample mass in the
// horizon are absent.
func (a *Accum) GroupAverage() (map[int][]float64, error) {
	if a.Dim <= 0 {
		return nil, fmt.Errorf("query: group average needs dim > 0, got %d", a.Dim)
	}
	if len(a.Classes) == 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d", a.Horizon)
	}
	out := make(map[int][]float64, len(a.Classes))
	for label, ca := range a.Classes {
		avg := make([]float64, a.Dim)
		for d := range avg {
			avg[d] = ca.Sums[d] / ca.Count
		}
		out[label] = avg
	}
	return out, nil
}

// GroupCount returns each label's estimated in-horizon count, the
// un-normalized form of Distribution.
func (a *Accum) GroupCount() (map[int]float64, error) {
	if len(a.Classes) == 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d", a.Horizon)
	}
	out := make(map[int]float64, len(a.Classes))
	for label, ca := range a.Classes {
		out[label] = ca.Count
	}
	return out, nil
}

// LabelCount is one entry of a top-k report: a label, its estimated count
// among the last h arrivals, and the standard error of that estimate
// (from Lemma 4.1), so callers can tell a solid ranking from a statistical
// tie.
type LabelCount struct {
	Label int
	Count float64
	Sigma float64
}

// TopK returns the k labels with the largest estimated counts, with
// Lemma 4.1 standard errors, sorted by count descending; fewer than k
// entries when fewer labels have sample mass in the horizon.
func (a *Accum) TopK(k int) ([]LabelCount, error) {
	if k <= 0 {
		return nil, fmt.Errorf("query: top-k needs k > 0, got %d", k)
	}
	if len(a.Classes) == 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d", a.Horizon)
	}
	out := make([]LabelCount, 0, len(a.Classes))
	for label, ca := range a.Classes {
		out = append(out, LabelCount{Label: label, Count: ca.Count, Sigma: math.Sqrt(ca.Var)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Label < out[j].Label
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// Selectivity returns the estimated fraction of in-horizon points inside
// the rect the walk was given — Figure 5's range-selectivity query, the
// (mergeable) range numerator over the count denominator.
func (a *Accum) Selectivity() (float64, error) {
	if !a.HasRange {
		return 0, fmt.Errorf("query: accumulator carries no range terms (walk ran without a rect)")
	}
	if a.Count <= 0 {
		return 0, fmt.Errorf("query: no sample mass in horizon %d", a.Horizon)
	}
	return a.RangeNum / a.Count, nil
}

// EstimateOn evaluates Equation 8 for an arbitrary linear query against a
// snapshot: H(t) = Σ c·h(X)/p(r,t) over the sampled points. By Observation
// 4.1 E[H(t)] = G(t), for biased and unbiased reservoirs alike — the bias
// is corrected by dividing by each point's inclusion probability.
func EstimateOn(snap *core.Snapshot, q Linear) float64 {
	t := snap.T
	var sum float64
	for i := range snap.Points {
		p := snap.Points[i]
		c := q.Coeff(p, t)
		if c == 0 {
			continue
		}
		pr := snap.Probs[i]
		if pr <= 0 {
			continue
		}
		sum += c * q.Value(p) / pr
	}
	return sum
}

// EstimateWithVarianceOn is EstimateOn plus the Horvitz–Thompson estimate
// of its own variance, in one pass. Lemma 4.1 gives Var[H(t)] = Σ_r K(r,t)
// with K(r,t) = c_r²·h(X_r)²·(1/p(r,t) − 1); since only sampled points are
// visible, each sampled term is reweighted by 1/p(r,t).
func EstimateWithVarianceOn(snap *core.Snapshot, q Linear) (estimate, variance float64) {
	t := snap.T
	for i := range snap.Points {
		p := snap.Points[i]
		c := q.Coeff(p, t)
		if c == 0 {
			continue
		}
		pr := snap.Probs[i]
		if pr <= 0 {
			continue
		}
		v := q.Value(p)
		estimate += c * v / pr
		k := c * c * v * v * (1/pr - 1)
		variance += k / pr
	}
	return estimate, variance
}

// QuantileOn estimates the q-quantile (0 < q < 1) of dimension dim over
// the last h arrivals. Each sampled point is weighted by 1/p(r,t) exactly
// as in Equation 8, so the weighted empirical distribution is an unbiased
// estimate of the horizon's value distribution; its quantile estimates the
// true quantile. A quantile is not linear, so it has no Accum form and does
// not merge across shards. It errors when no sample mass falls inside the
// horizon.
func QuantileOn(snap *core.Snapshot, h uint64, dim int, q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("query: quantile needs 0 < q < 1, got %v", q)
	}
	if dim < 0 {
		return 0, fmt.Errorf("query: quantile needs dim >= 0, got %d", dim)
	}
	t := snap.T
	type wv struct {
		v, w float64
	}
	var items []wv
	var total float64
	for i := range snap.Points {
		p := &snap.Points[i]
		if p.Index == 0 || p.Index > t {
			continue
		}
		if h > 0 && t-p.Index >= h {
			continue
		}
		if dim >= len(p.Values) {
			continue
		}
		pr := snap.Probs[i]
		if pr <= 0 {
			continue
		}
		w := 1 / pr
		items = append(items, wv{v: p.Values[dim], w: w})
		total += w
	}
	if total <= 0 || len(items) == 0 {
		return 0, fmt.Errorf("query: no sample mass in horizon %d", h)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	target := q * total
	var cum float64
	for _, it := range items {
		cum += it.w
		if cum >= target {
			return it.v, nil
		}
	}
	return items[len(items)-1].v, nil
}
