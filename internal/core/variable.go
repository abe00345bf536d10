package core

import (
	"fmt"
	"math"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// VariableReservoir implements the paper's *variable reservoir sampling*
// (Section 3, Theorem 3.3): the fix for Algorithm 3.1's slow start-up under
// strong space constraints.
//
// The sampler begins with insertion probability p_in = 1 and a *fictitious*
// reservoir of size p_in/λ, of which only n_max slots physically exist.
// Whenever the true space limit n_max is reached, p_in is multiplied by a
// reduction factor and a matching fraction of resident points is ejected,
// which by Theorem 3.3 preserves proportionality to p_in·f(r,t) across the
// policy change. Reductions stop once p_in reaches the target n_max·λ,
// after which the sampler behaves exactly like Algorithm 3.1.
//
// With the paper's recommended reduction factor 1 - 1/n_max exactly one
// point is ejected per phase, so the reservoir stays full up to one slot at
// all times — the property Figure 1 demonstrates.
type VariableReservoir struct {
	lambda    float64
	nmax      int
	pin       float64
	targetPin float64
	reduce    float64
	pts       []stream.Point
	t         uint64
	admitted  uint64
	rng       *xrand.Source
	phases    int
	ver       uint64
}

var _ Sampler = (*VariableReservoir)(nil)

// VariableOption customizes a VariableReservoir.
type VariableOption func(*VariableReservoir) error

// WithReductionFactor overrides the p_in reduction factor applied when the
// reservoir hits its space limit. The factor must lie in (0, 1). The paper
// notes the exact choice does not affect correctness (Theorem 3.3), only
// how full the reservoir stays between phases; its recommended choice — the
// default — is 1 - 1/n_max.
func WithReductionFactor(f float64) VariableOption {
	return func(v *VariableReservoir) error {
		if !(f > 0) || f >= 1 || math.IsNaN(f) {
			return fmt.Errorf("core: reduction factor must be in (0,1), got %v", f)
		}
		v.reduce = f
		return nil
	}
}

// NewVariableReservoir returns a variable reservoir sampler realizing bias
// rate λ within a true space budget of nmax points. It requires
// 0 < nmax·λ <= 1, like Algorithm 3.1.
func NewVariableReservoir(lambda float64, nmax int, rng *xrand.Source, opts ...VariableOption) (*VariableReservoir, error) {
	if nmax <= 0 {
		return nil, fmt.Errorf("core: variable reservoir needs nmax > 0, got %d", nmax)
	}
	if !(lambda > 0) || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("core: variable reservoir needs λ > 0, got %v", lambda)
	}
	target := float64(nmax) * lambda
	if target > 1+1e-12 {
		return nil, fmt.Errorf(
			"core: nmax %d exceeds the maximum requirement 1/λ = %.4g (use NewBiasedReservoir)",
			nmax, 1/lambda)
	}
	if target > 1 {
		target = 1
	}
	if rng == nil {
		return nil, fmt.Errorf("core: variable reservoir needs a random source")
	}
	v := &VariableReservoir{
		lambda:    lambda,
		nmax:      nmax,
		pin:       1,
		targetPin: target,
		reduce:    1 - 1/float64(nmax),
		pts:       make([]stream.Point, 0, nmax),
		rng:       rng,
	}
	if nmax == 1 {
		// 1 - 1/nmax would be 0; fall back to halving.
		v.reduce = 0.5
	}
	for _, opt := range opts {
		if err := opt(v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Add implements Sampler. The physical slice never exceeds nmax slots:
// when an insertion would overflow the budget, the reduction phase runs
// *first* to free space, so cap(v.pts) stays exactly nmax for the
// sampler's whole lifetime (no transient nmax+1 state, no reallocation
// past the stated budget).
func (v *VariableReservoir) Add(p stream.Point) {
	v.ver++
	v.t++
	if v.pin < 1 && !v.rng.Bernoulli(v.pin) {
		return
	}
	v.admit(p)
}

// AddBatch implements BatchSampler: distributionally identical to Add-ing
// each point in order, with the Bernoulli(p_in) admission coins replaced by
// geometric skip draws (one random number per admitted point). p_in only
// changes inside reduction phases, which run on admitted points, so the
// skip distribution is re-read after every admission and stays correct
// across phase boundaries; skipped points change no sampler state. The
// trailing skip that overruns the batch is discarded — Bernoulli trials are
// memoryless, so redrawing at the next batch leaves the process unchanged.
func (v *VariableReservoir) AddBatch(pts []stream.Point) {
	n := len(pts)
	v.ver++
	v.t += uint64(n)
	for i := 0; i < n; i++ {
		if v.pin < 1 {
			skip := v.rng.Geometric(v.pin)
			if skip >= n-i {
				return
			}
			i += skip
		}
		v.admit(pts[i])
	}
}

// admit handles a point that has passed the p_in admission coin: the
// Section 3 replacement policy against the fictitious reservoir, with a
// reduction phase when the physical budget would overflow.
func (v *VariableReservoir) admit(p stream.Point) {
	v.admitted++
	// F(t) is computed against the *fictitious* reservoir size p_in/λ,
	// not the physical budget (Section 3). Once p_in has decayed to the
	// target, the fictitious size equals nmax.
	fictitious := v.pin / v.lambda
	fill := float64(len(v.pts)) / fictitious
	if fill > 1 {
		fill = 1
	}
	if v.rng.Bernoulli(fill) && len(v.pts) > 0 {
		v.pts[v.rng.Intn(len(v.pts))] = own(p)
		return
	}
	// Insertion path: the space limit triggers a reduction phase before
	// the append, unless p_in is already at its target (then the
	// physical reservoir is allowed to be full). The incoming point
	// participates in the ejection lottery so the phase is distributed
	// exactly as if it had been appended first.
	if len(v.pts) >= v.nmax && v.pin > v.targetPin {
		if v.reducePhase() {
			return // the incoming point itself was ejected
		}
	}
	if len(v.pts) >= v.nmax {
		// p_in is at its target and the reservoir is full; F(t)=1 makes
		// this branch unreachable in practice, but overwrite rather than
		// grow if floating point ever lets it happen.
		v.pts[v.rng.Intn(len(v.pts))] = own(p)
		return
	}
	v.pts = append(v.pts, own(p))
}

// reducePhase multiplies p_in by the reduction factor (clamped at the
// target) and ejects the fraction of points required by Theorem 3.3 to keep
// every resident's inclusion probability proportional to the new
// p_in·f(r,t). The phase runs when an insertion would overflow the nmax
// budget, so the lottery ranges over the residents *plus* the incoming
// point — ejecting uniformly from that (nmax+1)-point multiset without
// ever materializing it. It reports whether the incoming point was among
// the ejected (the caller then drops it instead of appending).
func (v *VariableReservoir) reducePhase() (incomingEjected bool) {
	oldPin := v.pin
	newPin := oldPin * v.reduce
	if newPin < v.targetPin {
		newPin = v.targetPin
	}
	v.pin = newPin
	// Retain each point with probability newPin/oldPin: eject a uniform
	// random subset of the complementary expected size, at least one
	// point so the phase always frees a slot for the incoming point.
	n := len(v.pts) + 1 // residents + incoming
	frac := 1 - newPin/oldPin
	eject := int(math.Round(frac * float64(n)))
	if eject < 1 {
		eject = 1
	}
	if eject > n {
		eject = n
	}
	v.phases++
	if v.rng.Bernoulli(float64(eject) / float64(n)) {
		incomingEjected = true
		eject--
	}
	if eject > len(v.pts) {
		eject = len(v.pts)
	}
	for i := 0; i < eject; i++ {
		j := v.rng.Intn(len(v.pts))
		last := len(v.pts) - 1
		v.pts[j] = v.pts[last]
		v.pts = v.pts[:last]
	}
	return incomingEjected
}

// Points implements Sampler.
func (v *VariableReservoir) Points() []stream.Point { return v.pts }

// Sample implements Sampler.
func (v *VariableReservoir) Sample() []stream.Point { return copyPoints(v.pts) }

// Len implements Sampler.
func (v *VariableReservoir) Len() int { return len(v.pts) }

// Capacity implements Sampler (the true space budget n_max).
func (v *VariableReservoir) Capacity() int { return v.nmax }

// Processed implements Sampler.
func (v *VariableReservoir) Processed() uint64 { return v.t }

// Version implements VersionedSampler.
func (v *VariableReservoir) Version() uint64 { return v.ver }

// Admitted returns how many points passed the p_in coin and were placed in
// the reservoir (by insertion or replacement) over the sampler's lifetime.
func (v *VariableReservoir) Admitted() uint64 { return v.admitted }

// Lambda returns the bias rate λ.
func (v *VariableReservoir) Lambda() float64 { return v.lambda }

// PIn returns the current insertion probability; it starts at 1 and decays
// to n_max·λ through reduction phases.
func (v *VariableReservoir) PIn() float64 { return v.pin }

// TargetPIn returns the terminal insertion probability n_max·λ.
func (v *VariableReservoir) TargetPIn() float64 { return v.targetPin }

// Phases returns how many p_in reduction phases have run.
func (v *VariableReservoir) Phases() int { return v.phases }

// InclusionProb implements Sampler. By Theorem 3.3 the mixed sample always
// satisfies proportionality to the *current* p_in times the bias function:
// p(r,t) = p_in(t)·e^{-λ(t-r)}, capped at 1.
func (v *VariableReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > v.t {
		return 0
	}
	p := v.pin * math.Exp(-v.lambda*float64(v.t-r))
	if p > 1 {
		return 1
	}
	return p
}
