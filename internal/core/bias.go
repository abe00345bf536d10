// Package core implements the paper's primary contribution: biased reservoir
// sampling under stream evolution (Aggarwal, VLDB 2006).
//
// It provides the bias-function formalism of Definition 2.1, the maximum
// reservoir requirement bounds of Theorem 2.1 / Lemma 2.1, the one-pass
// maintenance algorithms for memory-less (exponential) bias functions —
// Algorithm 2.1 (deterministic insertion), Algorithm 3.1 (space-constrained
// probabilistic insertion) and variable reservoir sampling (Theorem 3.3) —
// as well as the unbiased (Vitter Algorithm R) and sliding-window baselines
// the paper compares against.
//
// Samplers that can exploit grouped arrivals implement BatchSampler: their
// AddBatch replaces the per-arrival Bernoulli(p_in) admission coin with one
// geometric skip per admitted point (and, for Algorithm Z, decrements
// Vitter's skip counter in bulk), keeping the sample distribution of the
// per-point loop at a fraction of its random-number cost. The package-level
// AddBatch helper dispatches to the fast path when present.
package core

import (
	"fmt"
	"math"
)

// BiasFunction is the paper's f(r,t): the relative probability with which
// the r-th stream point should be present in a biased sample drawn at the
// arrival of the t-th point (Definition 2.1). Implementations must satisfy
// the paper's monotonicity requirements: Weight is non-increasing in t for
// fixed r and non-decreasing in r for fixed t, with Weight(t,t) the maximum.
// Weight must be positive for 1 <= r <= t.
type BiasFunction interface {
	// Weight returns f(r,t), the relative inclusion weight of the r-th
	// point at stream position t (r <= t).
	Weight(r, t uint64) float64
}

// Memoryless is implemented by bias functions for which the future decay of
// a point's weight is independent of its arrival time: f(r,t) depends only
// on the age t-r and satisfies f(r,t+1)/f(r,t) = const. The paper proves
// (Section 2) that one-pass reservoir maintenance is simple exactly for this
// class; the exponential family is its only continuous member.
type Memoryless interface {
	BiasFunction
	// DecayRate returns λ such that f(r,t) = e^{-λ(t-r)}.
	DecayRate() float64
}

// Exponential is the paper's memory-less exponential bias function
// f(r,t) = e^{-λ(t-r)} (Equation 1). λ = 0 degenerates to the unbiased
// case.
type Exponential struct {
	// Lambda is the bias rate λ; 1/λ is the number of arrivals after
	// which a point's relative inclusion weight decays by a factor 1/e.
	Lambda float64
}

// NewExponential validates λ and returns the bias function. λ must be
// non-negative; the paper assumes λ « 1 for its approximations but the
// function itself is well-defined for any λ >= 0.
func NewExponential(lambda float64) (Exponential, error) {
	if lambda < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return Exponential{}, fmt.Errorf("core: exponential bias needs finite λ >= 0, got %v", lambda)
	}
	return Exponential{Lambda: lambda}, nil
}

// Weight implements BiasFunction.
func (e Exponential) Weight(r, t uint64) float64 {
	if r > t {
		return 0
	}
	return math.Exp(-e.Lambda * float64(t-r))
}

// DecayRate implements Memoryless.
func (e Exponential) DecayRate() float64 { return e.Lambda }

// Unbiased is the constant bias function f(r,t) = 1, i.e. classical uniform
// reservoir sampling (λ = 0 in the paper's formulation).
type Unbiased struct{}

// Weight implements BiasFunction.
func (Unbiased) Weight(r, t uint64) float64 {
	if r > t {
		return 0
	}
	return 1
}

// DecayRate implements Memoryless (λ = 0).
func (Unbiased) DecayRate() float64 { return 0 }

// Polynomial is a non-memory-less bias function f(r,t) = (1+t-r)^{-α}. The
// paper leaves one-pass maintenance for such functions as an open problem;
// this type exists so the requirement bounds of Theorem 2.1 and the exact
// oracle (internal/exact) can be exercised on a non-exponential family.
type Polynomial struct {
	// Alpha is the decay exponent; must be positive.
	Alpha float64
}

// NewPolynomial validates α and returns the bias function.
func NewPolynomial(alpha float64) (Polynomial, error) {
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return Polynomial{}, fmt.Errorf("core: polynomial bias needs finite α > 0, got %v", alpha)
	}
	return Polynomial{Alpha: alpha}, nil
}

// Weight implements BiasFunction.
func (p Polynomial) Weight(r, t uint64) float64 {
	if r > t {
		return 0
	}
	return math.Pow(1+float64(t-r), -p.Alpha)
}

// MaxReservoirRequirement evaluates Theorem 2.1 directly:
//
//	R(t) <= Σ_{i=1..t} f(i,t) / f(t,t)
//
// the largest sample size any policy can maintain while satisfying the bias
// function f at stream length t. It is O(t) and intended for analysis and
// tests; use ExpMaxRequirement for the exponential closed form.
func MaxReservoirRequirement(f BiasFunction, t uint64) float64 {
	if t == 0 {
		return 0
	}
	newest := f.Weight(t, t)
	if newest <= 0 {
		return 0
	}
	var sum float64
	for i := uint64(1); i <= t; i++ {
		sum += f.Weight(i, t)
	}
	return sum / newest
}

// ExpMaxRequirement is Lemma 2.1's closed form of the maximum reservoir
// requirement for the exponential bias function:
//
//	R(t) <= (1 - e^{-λt}) / (1 - e^{-λ})
//
// For λ = 0 (unbiased) the requirement is t itself.
func ExpMaxRequirement(lambda float64, t uint64) float64 {
	if t == 0 {
		return 0
	}
	if lambda == 0 {
		return float64(t)
	}
	return (1 - math.Exp(-lambda*float64(t))) / (1 - math.Exp(-lambda))
}

// ExpMaxRequirementLimit is Corollary 2.1: the stream-length-independent
// upper bound 1/(1-e^{-λ}) on the reservoir requirement of the exponential
// bias function, ≈ 1/λ for small λ (Approximation 2.1). It returns +Inf for
// λ = 0, reflecting that an unbiased sample has no finite maximum.
func ExpMaxRequirementLimit(lambda float64) float64 {
	if lambda == 0 {
		return math.Inf(1)
	}
	return 1 / (1 - math.Exp(-lambda))
}

// ReservoirCapacity returns ⌊1/λ⌋, the reservoir size Algorithm 2.1 uses to
// realize the exponential bias with parameter λ (Approximation 2.1 and
// Observation 2.1: the reservoir size *is* the bias parameter). It returns
// an error when λ is outside (0, 1], or so small that ⌊1/λ⌋ does not fit
// an int.
func ReservoirCapacity(lambda float64) (int, error) {
	if !(lambda > 0) || lambda > 1 || math.IsNaN(lambda) {
		return 0, fmt.Errorf("core: reservoir capacity needs 0 < λ <= 1, got %v", lambda)
	}
	n := math.Floor(1 / lambda)
	if n >= math.MaxInt+1.0 {
		return 0, fmt.Errorf("core: reservoir capacity ⌊1/λ⌋ = %v for λ = %v exceeds the largest int", n, lambda)
	}
	return int(n), nil // n >= 1, as λ <= 1
}
