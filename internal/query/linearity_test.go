package query

import (
	"math"
	"testing"
	"testing/quick"

	"biasedres/internal/core"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// The Equation 8 estimator is linear in the query: for a fixed sample,
// H(αq1 + βq2) = α·H(q1) + β·H(q2). This pins down the estimator's
// algebraic structure independent of any sampling distribution.
func TestEstimateLinearityProperty(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.01, xrand.New(5))
	rng := xrand.New(6)
	for i := 1; i <= 5000; i++ {
		b.Add(stream.Point{
			Index:  uint64(i),
			Values: []float64{rng.Float64(), rng.NormFloat64()},
			Label:  i % 3,
			Weight: 1,
		})
	}
	combine := func(alpha, beta float64, q1, q2 Linear) Linear {
		return Linear{
			Name:  "combo",
			Coeff: q1.Coeff, // same horizon structure
			Value: func(p stream.Point) float64 {
				return alpha*q1.Value(p) + beta*q2.Value(p)
			},
		}
	}
	check := func(aRaw, bRaw int8, hRaw uint16) bool {
		alpha := float64(aRaw) / 16
		beta := float64(bRaw) / 16
		h := uint64(hRaw%3000) + 10
		q1 := Sum(h, 0)
		q2 := Sum(h, 1)
		lhs := EstimateOn(core.SnapshotOf(b), combine(alpha, beta, q1, q2))
		rhs := alpha*EstimateOn(core.SnapshotOf(b), q1) + beta*EstimateOn(core.SnapshotOf(b), q2)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Count decomposes over classes: the sum of per-class count estimates
// equals the total count estimate, for any horizon.
func TestClassCountDecompositionProperty(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.005, xrand.New(9))
	for i := 1; i <= 8000; i++ {
		b.Add(stream.Point{Index: uint64(i), Values: []float64{1}, Label: i % 5, Weight: 1})
	}
	check := func(hRaw uint16) bool {
		h := uint64(hRaw%5000) + 1
		total := EstimateOn(core.SnapshotOf(b), Count(h))
		var parts float64
		for label := 0; label < 5; label++ {
			parts += EstimateOn(core.SnapshotOf(b), ClassCount(h, label))
		}
		return math.Abs(total-parts) <= 1e-9*(1+total)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Nested horizons are monotone: the count estimate over a wider horizon is
// at least the estimate over a narrower one (same sample, same weights).
func TestCountMonotoneInHorizonProperty(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.005, xrand.New(11))
	for i := 1; i <= 8000; i++ {
		b.Add(stream.Point{Index: uint64(i), Values: []float64{1}, Weight: 1})
	}
	check := func(h1Raw, h2Raw uint16) bool {
		h1 := uint64(h1Raw%5000) + 1
		h2 := uint64(h2Raw%5000) + 1
		if h1 > h2 {
			h1, h2 = h2, h1
		}
		return EstimateOn(core.SnapshotOf(b), Count(h1)) <= EstimateOn(core.SnapshotOf(b), Count(h2))+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Quantile estimates are monotone in q for a fixed sample.
func TestQuantileMonotoneProperty(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.01, xrand.New(13))
	rng := xrand.New(14)
	for i := 1; i <= 5000; i++ {
		b.Add(stream.Point{Index: uint64(i), Values: []float64{rng.NormFloat64()}, Weight: 1})
	}
	check := func(q1Raw, q2Raw uint8) bool {
		q1 := (float64(q1Raw) + 1) / 258
		q2 := (float64(q2Raw) + 1) / 258
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, err1 := QuantileOn(core.SnapshotOf(b), 1000, 0, q1)
		v2, err2 := QuantileOn(core.SnapshotOf(b), 1000, 0, q2)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1 <= v2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
