package core

import (
	"fmt"
	"math"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// BiasedReservoir maintains an exponentially biased sample in one pass. It
// implements both of the paper's fixed-capacity policies:
//
//   - Algorithm 2.1 (NewBiasedReservoir): the available space covers the
//     maximum requirement 1/λ, so the capacity is n = ⌊1/λ⌋ and insertion is
//     deterministic (p_in = 1). Theorem 2.2: p(r,t) ≈ e^{-λ(t-r)}.
//
//   - Algorithm 3.1 (NewConstrainedReservoir): the space budget n is below
//     1/λ, so arriving points are admitted only with probability
//     p_in = n·λ. Theorem 3.1: p(r,t) ≈ p_in·e^{-λ(t-r)}.
//
// In both cases an admitted point replaces a uniformly random resident with
// probability F(t) (the fill fraction) and otherwise grows the reservoir by
// one — the paper's parameter-free replacement policy (Observation 2.1: the
// reservoir size is what determines the realized bias).
type BiasedReservoir struct {
	st  biasedState
	rng *xrand.Source
	// ver counts mutations for the snapshot layer; guarded by whatever
	// lock guards Add (see VersionedSampler).
	ver uint64
}

// biasedState is what a BiasedReservoir persists. Its gob encoding is the
// snapshot body (persist.go), so the names, types and order of its fields
// are part of the checkpoint format.
type biasedState struct {
	Lambda   float64
	PIn      float64
	Capacity int
	T        uint64
	// Admitted counts stream points actually inserted; exposed for
	// fill-time analysis (Theorem 3.2 tests).
	Admitted uint64
	Pts      []stream.Point
	RNG      []byte // the generator's state, filled only while encoding
}

var _ Sampler = (*BiasedReservoir)(nil)

// NewBiasedReservoir returns an Algorithm 2.1 sampler for bias rate λ. The
// reservoir capacity is ⌊1/λ⌋ — the maximum requirement of Approximation
// 2.1 — and insertion is deterministic. λ must lie in (0, 1].
func NewBiasedReservoir(lambda float64, rng *xrand.Source) (*BiasedReservoir, error) {
	n, err := ReservoirCapacity(lambda)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("core: biased reservoir needs a random source")
	}
	return &BiasedReservoir{
		st:  biasedState{Lambda: lambda, PIn: 1, Capacity: n, Pts: make([]stream.Point, 0, n)},
		rng: rng,
	}, nil
}

// NewConstrainedReservoir returns an Algorithm 3.1 sampler: a reservoir of
// the given capacity n realizing bias rate λ with insertion probability
// p_in = n·λ. It requires 0 < n·λ <= 1; n·λ = 1 degenerates to Algorithm
// 2.1.
func NewConstrainedReservoir(lambda float64, capacity int, rng *xrand.Source) (*BiasedReservoir, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: constrained reservoir needs capacity > 0, got %d", capacity)
	}
	if !(lambda > 0) || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("core: constrained reservoir needs λ > 0, got %v", lambda)
	}
	pin := float64(capacity) * lambda
	if pin > 1+1e-12 {
		return nil, fmt.Errorf(
			"core: capacity %d exceeds the maximum requirement 1/λ = %.4g; p_in = n·λ = %.4g > 1 (use NewBiasedReservoir)",
			capacity, 1/lambda, pin)
	}
	if pin > 1 {
		pin = 1
	}
	if rng == nil {
		return nil, fmt.Errorf("core: constrained reservoir needs a random source")
	}
	return &BiasedReservoir{
		st:  biasedState{Lambda: lambda, PIn: pin, Capacity: capacity, Pts: make([]stream.Point, 0, capacity)},
		rng: rng,
	}, nil
}

// Add implements Sampler: the replacement policy of Algorithms 2.1/3.1.
func (b *BiasedReservoir) Add(p stream.Point) {
	b.ver++
	b.st.T++
	if b.st.PIn < 1 && !b.rng.Bernoulli(b.st.PIn) {
		return
	}
	b.admit(p)
}

// admit places a point that has passed the p_in insertion filter: a coin
// with success probability F(t) — the fill fraction just before this
// arrival — decides replacement versus growth.
func (b *BiasedReservoir) admit(p stream.Point) {
	b.st.Admitted++
	fill := float64(len(b.st.Pts)) / float64(b.st.Capacity)
	if b.rng.Bernoulli(fill) {
		b.st.Pts[b.rng.Intn(len(b.st.Pts))] = own(p)
	} else {
		b.st.Pts = append(b.st.Pts, own(p))
	}
}

// AddBatch implements BatchSampler: distributionally identical to Add-ing
// each point in order, but the Bernoulli(p_in) admission coins are replaced
// by geometric skip draws — one random number per *admitted* point rather
// than one per arrival. For Algorithm 3.1 under a tight budget (p_in = n·λ
// ≪ 1) this removes almost all RNG work from the hot path; for Algorithm
// 2.1 (p_in = 1) it degenerates to the plain loop. The trailing skip that
// overruns the batch is discarded: Bernoulli trials are memoryless, so
// redrawing at the next batch leaves the admission process unchanged.
func (b *BiasedReservoir) AddBatch(pts []stream.Point) {
	n := len(pts)
	b.ver++
	b.st.T += uint64(n)
	for i := 0; i < n; i++ {
		if b.st.PIn < 1 {
			skip := b.rng.Geometric(b.st.PIn)
			if skip >= n-i {
				return
			}
			i += skip
		}
		b.admit(pts[i])
	}
}

// Points implements Sampler.
func (b *BiasedReservoir) Points() []stream.Point { return b.st.Pts }

// Sample implements Sampler.
func (b *BiasedReservoir) Sample() []stream.Point { return copyPoints(b.st.Pts) }

// Len implements Sampler.
func (b *BiasedReservoir) Len() int { return len(b.st.Pts) }

// Capacity implements Sampler.
func (b *BiasedReservoir) Capacity() int { return b.st.Capacity }

// Processed implements Sampler.
func (b *BiasedReservoir) Processed() uint64 { return b.st.T }

// Version implements VersionedSampler.
func (b *BiasedReservoir) Version() uint64 { return b.ver }

// Admitted returns the number of points that passed the p_in insertion
// filter (equal to Processed for Algorithm 2.1).
func (b *BiasedReservoir) Admitted() uint64 { return b.st.Admitted }

// Lambda returns the bias rate λ the reservoir realizes.
func (b *BiasedReservoir) Lambda() float64 { return b.st.Lambda }

// PIn returns the insertion probability p_in (1 for Algorithm 2.1).
func (b *BiasedReservoir) PIn() float64 { return b.st.PIn }

// InclusionProb implements Sampler using the approximate closed forms of
// Theorems 2.2 and 3.1: p(r,t) = p_in·e^{-λ(t-r)}, capped at 1.
func (b *BiasedReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > b.st.T {
		return 0
	}
	p := b.st.PIn * math.Exp(-b.st.Lambda*float64(b.st.T-r))
	if p > 1 {
		return 1
	}
	return p
}

// InclusionProbExact returns the exact pre-approximation retention
// probability from the proofs of Theorems 2.2/3.1:
// p_in·(1 - p_in/n)^{t-r}. The difference from InclusionProb vanishes as
// n/p_in grows; the estimator ablation benchmarks compare the two.
func (b *BiasedReservoir) InclusionProbExact(r uint64) float64 {
	if r == 0 || r > b.st.T {
		return 0
	}
	return b.st.PIn * math.Pow(1-b.st.PIn/float64(b.st.Capacity), float64(b.st.T-r))
}
