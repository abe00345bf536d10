package query

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// The legacy* functions below are the pre-snapshot estimators, copied
// verbatim (modulo names) from the versions that walked a live Sampler, one
// pass per statistic. They are the oracle: the fused walk and the snapshot
// kernels must reproduce them bit for bit — same skip conditions, same
// operation order — so every comparison in this file uses exact float
// equality, not tolerances.

func legacyEstimate(s core.Sampler, q Linear) float64 {
	t := s.Processed()
	var sum float64
	for _, p := range s.Points() {
		c := q.Coeff(p, t)
		if c == 0 {
			continue
		}
		pr := s.InclusionProb(p.Index)
		if pr <= 0 {
			continue
		}
		sum += c * q.Value(p) / pr
	}
	return sum
}

func legacyEstimateWithVariance(s core.Sampler, q Linear) (estimate, variance float64) {
	t := s.Processed()
	for _, p := range s.Points() {
		c := q.Coeff(p, t)
		if c == 0 {
			continue
		}
		pr := s.InclusionProb(p.Index)
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

func legacyHorizonAverage(s core.Sampler, h uint64, dim int) ([]float64, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("query: horizon average needs dim > 0, got %d", dim)
	}
	count := legacyEstimate(s, Count(h))
	if count <= 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d (estimated count %v)", h, count)
	}
	out := make([]float64, dim)
	for d := 0; d < dim; d++ {
		out[d] = legacyEstimate(s, Sum(h, d)) / count
	}
	return out, nil
}

func legacyClassDistribution(s core.Sampler, h uint64) (map[int]float64, error) {
	t := s.Processed()
	count := Count(h)
	var total float64
	sums := make(map[int]float64)
	for _, p := range s.Points() {
		c := count.Coeff(p, t)
		if c == 0 {
			continue
		}
		pr := s.InclusionProb(p.Index)
		if pr <= 0 {
			continue
		}
		sums[p.Label] += c / pr
		total += c / pr
	}
	if total <= 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d", h)
	}
	for k := range sums {
		sums[k] /= total
	}
	return sums, nil
}

func legacyRangeSelectivity(s core.Sampler, h uint64, rect Rect) (float64, error) {
	count := legacyEstimate(s, Count(h))
	if count <= 0 {
		return 0, fmt.Errorf("query: no sample mass in horizon %d", h)
	}
	return legacyEstimate(s, RangeCount(h, rect)) / count, nil
}

func legacyGroupAverage(s core.Sampler, h uint64, dim int) (map[int][]float64, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("query: group average needs dim > 0, got %d", dim)
	}
	t := s.Processed()
	horizon := horizonCoeff(h)
	sums := make(map[int][]float64)
	weights := make(map[int]float64)
	for _, p := range s.Points() {
		if horizon(p, t) == 0 {
			continue
		}
		pr := s.InclusionProb(p.Index)
		if pr <= 0 {
			continue
		}
		w := 1 / pr
		acc, ok := sums[p.Label]
		if !ok {
			acc = make([]float64, dim)
			sums[p.Label] = acc
		}
		for d := 0; d < dim && d < len(p.Values); d++ {
			acc[d] += w * p.Values[d]
		}
		weights[p.Label] += w
	}
	if len(sums) == 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d", h)
	}
	for label, acc := range sums {
		w := weights[label]
		for d := range acc {
			acc[d] /= w
		}
	}
	return sums, nil
}

func legacyGroupCount(s core.Sampler, h uint64) (map[int]float64, error) {
	t := s.Processed()
	horizon := horizonCoeff(h)
	counts := make(map[int]float64)
	for _, p := range s.Points() {
		if horizon(p, t) == 0 {
			continue
		}
		pr := s.InclusionProb(p.Index)
		if pr <= 0 {
			continue
		}
		counts[p.Label] += 1 / pr
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d", h)
	}
	return counts, nil
}

func legacyTopK(s core.Sampler, h uint64, k int) ([]LabelCount, error) {
	if k <= 0 {
		return nil, fmt.Errorf("query: top-k needs k > 0, got %d", k)
	}
	t := s.Processed()
	horizon := horizonCoeff(h)
	counts := make(map[int]float64)
	variances := make(map[int]float64)
	for _, p := range s.Points() {
		if horizon(p, t) == 0 {
			continue
		}
		pr := s.InclusionProb(p.Index)
		if pr <= 0 {
			continue
		}
		counts[p.Label] += 1 / pr
		variances[p.Label] += (1/pr - 1) / pr
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("query: no sample mass in horizon %d", h)
	}
	out := make([]LabelCount, 0, len(counts))
	for label, c := range counts {
		out = append(out, LabelCount{Label: label, Count: c, Sigma: math.Sqrt(variances[label])})
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

func legacyQuantile(s core.Sampler, h uint64, dim int, q float64) (float64, error) {
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("query: quantile needs 0 < q < 1, got %v", q)
	}
	if dim < 0 {
		return 0, fmt.Errorf("query: quantile needs dim >= 0, got %d", dim)
	}
	t := s.Processed()
	horizon := horizonCoeff(h)
	type wv struct {
		v, w float64
	}
	var items []wv
	var total float64
	for _, p := range s.Points() {
		if horizon(p, t) == 0 || dim >= len(p.Values) {
			continue
		}
		pr := s.InclusionProb(p.Index)
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

// frozenSamplers builds a set of reservoirs over the same irregular stream
// (varying dims, labels, values) and never mutates them again, so legacy
// and fused paths see identical state.
func frozenSamplers(t *testing.T) map[string]core.Sampler {
	t.Helper()
	out := map[string]core.Sampler{}
	b, err := core.NewBiasedReservoir(0.01, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	out["biased"] = b
	v, err := core.NewVariableReservoir(0.005, 60, xrand.New(22))
	if err != nil {
		t.Fatal(err)
	}
	out["variable"] = v
	u, err := core.NewUnbiasedReservoir(80, xrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	out["unbiased"] = u

	rng := xrand.New(99)
	for i := 1; i <= 3000; i++ {
		p := stream.Point{
			Index:  uint64(i),
			Label:  i % 5,
			Weight: 1,
			Values: []float64{rng.Float64() * 10, rng.Float64() - 0.5, float64(i % 7)},
		}
		if i%11 == 0 {
			p.Values = p.Values[:1] // exercise out-of-range dims
		}
		for _, s := range out {
			s.Add(p)
		}
	}
	return out
}

func TestFusedKernelsBitIdentical(t *testing.T) {
	rect, err := NewRect([]int{0}, []float64{2}, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	// A rect over a dimension some points lack.
	rect2, err := NewRect([]int{0, 2}, []float64{1, 0}, []float64{9, 4})
	if err != nil {
		t.Fatal(err)
	}
	horizons := []uint64{0, 50, 500, 2999, 10000}
	for name, s := range frozenSamplers(t) {
		snap := core.SnapshotOf(s)
		for _, h := range horizons {
			tag := fmt.Sprintf("%s h=%d", name, h)

			for _, q := range []Linear{Count(h), Sum(h, 1), ClassCount(h, 2), RangeCount(h, rect)} {
				if got, want := EstimateOn(snap, q), legacyEstimate(s, q); got != want {
					t.Errorf("%s %s: EstimateOn = %v, legacy = %v", tag, q.Name, got, want)
				}
				ge, gv := EstimateWithVarianceOn(snap, q)
				we, wv := legacyEstimateWithVariance(s, q)
				if ge != we || gv != wv {
					t.Errorf("%s %s: EstimateWithVarianceOn = (%v,%v), legacy = (%v,%v)", tag, q.Name, ge, gv, we, wv)
				}
			}

			checkSame := func(stat string, got, want any, gotErr, wantErr error) {
				t.Helper()
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s %s: error mismatch: fused %v, legacy %v", tag, stat, gotErr, wantErr)
				}
				if gotErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Fatalf("%s %s: error text mismatch: fused %q, legacy %q", tag, stat, gotErr, wantErr)
					}
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: fused %v, legacy %v", tag, stat, got, want)
				}
			}

			// The walk at dim 0 — what a count, classdist or selectivity
			// request runs — and at the stream's dim 3.
			for _, dim := range []int{0, 3} {
				for _, rc := range []Rect{rect, rect2} {
					a := Accumulate(snap, h, dim, &rc)
					stag := fmt.Sprintf("dim=%d rect=%v", dim, rc.Dims)

					we, wv := legacyEstimateWithVariance(s, Count(h))
					if a.Count != we || a.CountVar != wv {
						t.Fatalf("%s %s: Count = (%v,%v), legacy = (%v,%v)", tag, stag, a.Count, a.CountVar, we, wv)
					}
					we, wv = legacyEstimateWithVariance(s, RangeCount(h, rc))
					if a.RangeNum != we || a.RangeVar != wv {
						t.Fatalf("%s %s: RangeNum = (%v,%v), legacy = (%v,%v)", tag, stag, a.RangeNum, a.RangeVar, we, wv)
					}

					gr, grErr := a.Selectivity()
					lr, lrErr := legacyRangeSelectivity(s, h, rc)
					checkSame("Selectivity "+stag, gr, lr, grErr, lrErr)

					gd, gdErr := a.Distribution()
					ld, ldErr := legacyClassDistribution(s, h)
					checkSame("Distribution "+stag, gd, ld, gdErr, ldErr)

					ggc, ggcErr := a.GroupCount()
					lgc, lgcErr := legacyGroupCount(s, h)
					checkSame("GroupCount "+stag, ggc, lgc, ggcErr, lgcErr)

					gtk, gtkErr := a.TopK(3)
					ltk, ltkErr := legacyTopK(s, h, 3)
					checkSame("TopK "+stag, gtk, ltk, gtkErr, ltkErr)

					ga, gaErr := a.Average()
					la, laErr := legacyHorizonAverage(s, h, dim)
					checkSame("Average "+stag, ga, la, gaErr, laErr)

					gga, ggaErr := a.GroupAverage()
					lga, lgaErr := legacyGroupAverage(s, h, dim)
					checkSame("GroupAverage "+stag, gga, lga, ggaErr, lgaErr)
				}
			}

			gq, gqErr := QuantileOn(snap, h, 0, 0.9)
			lq, lqErr := legacyQuantile(s, h, 0, 0.9)
			checkSame("Quantile", gq, lq, gqErr, lqErr)
		}
	}
}

// An empty horizon (far in the past relative to every resident point) must
// produce the same errors from both paths.
func TestFusedEmptyHorizonErrors(t *testing.T) {
	u, err := core.NewUnbiasedReservoir(4, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	snap := core.SnapshotOf(u) // empty reservoir
	a := Accumulate(snap, 10, 2, nil)
	if _, err := a.Average(); err == nil {
		t.Error("Average on empty snapshot should error")
	}
	if _, err := a.Distribution(); err == nil {
		t.Error("Distribution on empty snapshot should error")
	}
	if _, err := a.TopK(0); err == nil {
		t.Error("TopK with k=0 should error")
	}
	if _, err := a.Selectivity(); err == nil {
		t.Error("Selectivity without a rect walk should error")
	}
	if _, err := QuantileOn(snap, 10, 0, 1.5); err == nil {
		t.Error("QuantileOn with q out of range should error")
	}
}
