package core

import (
	"math"
	"testing"
	"testing/quick"

	"biasedres/internal/xrand"
)

func TestNewExponentialValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(bad); err == nil {
			t.Errorf("λ=%v accepted", bad)
		}
	}
	if _, err := NewExponential(0); err != nil {
		t.Errorf("λ=0 (unbiased) rejected: %v", err)
	}
}

func TestExponentialWeight(t *testing.T) {
	e, _ := NewExponential(0.1)
	if got := e.Weight(10, 10); got != 1 {
		t.Fatalf("f(t,t) = %v, want 1", got)
	}
	if got := e.Weight(5, 10); math.Abs(got-math.Exp(-0.5)) > 1e-12 {
		t.Fatalf("f(5,10) = %v", got)
	}
	if got := e.Weight(11, 10); got != 0 {
		t.Fatalf("future point weight = %v, want 0", got)
	}
	if e.DecayRate() != 0.1 {
		t.Fatalf("DecayRate = %v", e.DecayRate())
	}
}

func TestUnbiasedWeight(t *testing.T) {
	u := Unbiased{}
	if u.Weight(1, 100) != 1 || u.Weight(100, 100) != 1 {
		t.Fatal("unbiased weight must be 1")
	}
	if u.Weight(101, 100) != 0 {
		t.Fatal("future weight must be 0")
	}
	if u.DecayRate() != 0 {
		t.Fatal("unbiased decay rate must be 0")
	}
}

func TestPolynomialValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewPolynomial(bad); err == nil {
			t.Errorf("α=%v accepted", bad)
		}
	}
	p, err := NewPolynomial(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Weight(8, 10); math.Abs(got-1.0/9) > 1e-12 {
		t.Fatalf("polynomial f(8,10) = %v, want 1/9", got)
	}
	if p.Weight(11, 10) != 0 {
		t.Fatal("future weight must be 0")
	}
}

// Definition 2.1 monotonicity: f must not increase as points age and must
// not decrease with recency.
func TestBiasMonotonicityProperty(t *testing.T) {
	exp, _ := NewExponential(0.05)
	poly, _ := NewPolynomial(1.5)
	for _, f := range []BiasFunction{exp, poly, Unbiased{}} {
		check := func(rRaw, tRaw uint16) bool {
			tt := uint64(tRaw%1000) + 2
			r := uint64(rRaw)%tt + 1 // 1..t
			w := f.Weight(r, tt)
			if w <= 0 || w > 1 {
				return false
			}
			// Aging: weight at t+1 must be <= weight at t.
			if f.Weight(r, tt+1) > w+1e-15 {
				return false
			}
			// Recency: a later point must weigh at least as much.
			if r < tt && f.Weight(r+1, tt) < w-1e-15 {
				return false
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%T: %v", f, err)
		}
	}
}

// Lemma 2.1's closed form must agree with Theorem 2.1's brute-force sum.
func TestExpRequirementMatchesBruteForce(t *testing.T) {
	for _, lambda := range []float64{0.001, 0.01, 0.1, 0.5} {
		e, _ := NewExponential(lambda)
		for _, tt := range []uint64{1, 2, 10, 100, 1000} {
			brute := MaxReservoirRequirement(e, tt)
			closed := ExpMaxRequirement(lambda, tt)
			if math.Abs(brute-closed) > 1e-6*closed {
				t.Errorf("λ=%v t=%d: brute %v vs closed %v", lambda, tt, brute, closed)
			}
		}
	}
}

func TestRequirementEdgeCases(t *testing.T) {
	e, _ := NewExponential(0.1)
	if MaxReservoirRequirement(e, 0) != 0 {
		t.Error("R(0) != 0")
	}
	if ExpMaxRequirement(0.1, 0) != 0 {
		t.Error("closed-form R(0) != 0")
	}
	// Unbiased: requirement is the whole stream.
	if got := ExpMaxRequirement(0, 500); got != 500 {
		t.Errorf("unbiased R(500) = %v", got)
	}
	if got := MaxReservoirRequirement(Unbiased{}, 500); got != 500 {
		t.Errorf("brute-force unbiased R(500) = %v", got)
	}
}

// Corollary 2.1: R(t) is bounded by 1/(1-e^{-λ}) for all t, and the bound is
// tight in the limit.
func TestRequirementLimit(t *testing.T) {
	const lambda = 0.01
	limit := ExpMaxRequirementLimit(lambda)
	for _, tt := range []uint64{10, 100, 1000, 100000} {
		if r := ExpMaxRequirement(lambda, tt); r > limit+1e-9 {
			t.Errorf("R(%d) = %v exceeds limit %v", tt, r, limit)
		}
	}
	if r := ExpMaxRequirement(lambda, 10_000_000); math.Abs(r-limit) > 1e-6*limit {
		t.Errorf("limit not tight: R(1e7) = %v, limit %v", r, limit)
	}
	// Approximation 2.1: limit ≈ 1/λ for small λ.
	if math.Abs(limit-1/lambda) > 0.01/lambda {
		t.Errorf("limit %v far from 1/λ = %v", limit, 1/lambda)
	}
	if !math.IsInf(ExpMaxRequirementLimit(0), 1) {
		t.Error("unbiased limit must be +Inf")
	}
}

func TestReservoirCapacity(t *testing.T) {
	n, err := ReservoirCapacity(0.001)
	if err != nil || n != 1000 {
		t.Fatalf("capacity(0.001) = %d, %v", n, err)
	}
	n, err = ReservoirCapacity(1)
	if err != nil || n != 1 {
		t.Fatalf("capacity(1) = %d, %v", n, err)
	}
	// A quarter of the int range still fits.
	if n, err := ReservoirCapacity(4 / (math.MaxInt + 1.0)); err != nil || n != math.MaxInt/4+1 {
		t.Errorf("capacity(4/(MaxInt+1)) = %d, %v", n, err)
	}
	// From 1/(MaxInt+1) down ⌊1/λ⌋ no longer fits an int: refused, not clamped to
	// one slot, by the rule and by the Algorithm 2.1 constructor.
	for _, bad := range []float64{0, -1, 1.5, math.NaN(), 1e-20, 1 / (math.MaxInt + 1.0), math.SmallestNonzeroFloat64} {
		if n, err := ReservoirCapacity(bad); err == nil {
			t.Errorf("λ=%v accepted: capacity %d", bad, n)
		}
		if _, err := NewBiasedReservoir(bad, xrand.New(1)); err == nil {
			t.Errorf("NewBiasedReservoir(%v) accepted", bad)
		}
	}
}
