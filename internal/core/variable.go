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
	st  variableState
	rng *xrand.Source
	ver uint64
}

// variableState is what a VariableReservoir persists; like every family's
// state, its gob encoding is the snapshot body.
type variableState struct {
	Lambda    float64
	Nmax      int
	PIn       float64
	TargetPIn float64
	Reduce    float64
	T         uint64
	Admitted  uint64
	Phases    int
	Pts       []stream.Point
	RNG       []byte
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
		v.st.Reduce = f
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
		st: variableState{
			Lambda: lambda, Nmax: nmax, PIn: 1, TargetPIn: target,
			Reduce: 1 - 1/float64(nmax), Pts: make([]stream.Point, 0, nmax),
		},
		rng: rng,
	}
	if nmax == 1 {
		// 1 - 1/nmax would be 0; fall back to halving.
		v.st.Reduce = 0.5
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
// *first* to free space, so cap(v.st.Pts) stays exactly nmax for the
// sampler's whole lifetime (no transient nmax+1 state, no reallocation
// past the stated budget).
func (v *VariableReservoir) Add(p stream.Point) {
	v.ver++
	v.st.T++
	if v.st.PIn < 1 && !v.rng.Bernoulli(v.st.PIn) {
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
	v.st.T += uint64(n)
	for i := 0; i < n; i++ {
		if v.st.PIn < 1 {
			skip := v.rng.Geometric(v.st.PIn)
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
	v.st.Admitted++
	// F(t) is computed against the *fictitious* reservoir size p_in/λ,
	// not the physical budget (Section 3). Once p_in has decayed to the
	// target, the fictitious size equals nmax.
	fictitious := v.st.PIn / v.st.Lambda
	fill := float64(len(v.st.Pts)) / fictitious
	if fill > 1 {
		fill = 1
	}
	if v.rng.Bernoulli(fill) && len(v.st.Pts) > 0 {
		v.st.Pts[v.rng.Intn(len(v.st.Pts))] = own(p)
		return
	}
	// Insertion path: the space limit triggers a reduction phase before
	// the append, unless p_in is already at its target (then the
	// physical reservoir is allowed to be full). The incoming point
	// participates in the ejection lottery so the phase is distributed
	// exactly as if it had been appended first.
	if len(v.st.Pts) >= v.st.Nmax && v.st.PIn > v.st.TargetPIn {
		if v.reducePhase() {
			return // the incoming point itself was ejected
		}
	}
	if len(v.st.Pts) >= v.st.Nmax {
		// p_in is at its target and the reservoir is full; F(t)=1 makes
		// this branch unreachable in practice, but overwrite rather than
		// grow if floating point ever lets it happen.
		v.st.Pts[v.rng.Intn(len(v.st.Pts))] = own(p)
		return
	}
	if len(v.st.Pts) == cap(v.st.Pts) {
		// Only a restore into a receiver of another budget leaves the
		// slice short of nmax (see UnmarshalBinary): double it, never
		// past the budget.
		v.st.Pts = append(make([]stream.Point, 0, min(2*len(v.st.Pts)+1, v.st.Nmax)), v.st.Pts...)
	}
	v.st.Pts = append(v.st.Pts, own(p))
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
	oldPin := v.st.PIn
	newPin := oldPin * v.st.Reduce
	if newPin < v.st.TargetPIn {
		newPin = v.st.TargetPIn
	}
	v.st.PIn = newPin
	// Retain each point with probability newPin/oldPin: eject a uniform
	// random subset of the complementary expected size, at least one
	// point so the phase always frees a slot for the incoming point.
	n := len(v.st.Pts) + 1 // residents + incoming
	frac := 1 - newPin/oldPin
	eject := int(math.Round(frac * float64(n)))
	if eject < 1 {
		eject = 1
	}
	if eject > n {
		eject = n
	}
	v.st.Phases++
	if v.rng.Bernoulli(float64(eject) / float64(n)) {
		incomingEjected = true
		eject--
	}
	if eject > len(v.st.Pts) {
		eject = len(v.st.Pts)
	}
	for i := 0; i < eject; i++ {
		j := v.rng.Intn(len(v.st.Pts))
		last := len(v.st.Pts) - 1
		v.st.Pts[j] = v.st.Pts[last]
		v.st.Pts = v.st.Pts[:last]
	}
	return incomingEjected
}

// Points implements Sampler.
func (v *VariableReservoir) Points() []stream.Point { return v.st.Pts }

// Sample implements Sampler.
func (v *VariableReservoir) Sample() []stream.Point { return copyPoints(v.st.Pts) }

// Len implements Sampler.
func (v *VariableReservoir) Len() int { return len(v.st.Pts) }

// Capacity implements Sampler (the true space budget n_max).
func (v *VariableReservoir) Capacity() int { return v.st.Nmax }

// Processed implements Sampler.
func (v *VariableReservoir) Processed() uint64 { return v.st.T }

// Version implements VersionedSampler.
func (v *VariableReservoir) Version() uint64 { return v.ver }

// Admitted returns how many points passed the p_in coin and were placed in
// the reservoir (by insertion or replacement) over the sampler's lifetime.
func (v *VariableReservoir) Admitted() uint64 { return v.st.Admitted }

// Lambda returns the bias rate λ.
func (v *VariableReservoir) Lambda() float64 { return v.st.Lambda }

// PIn returns the current insertion probability; it starts at 1 and decays
// to n_max·λ through reduction phases.
func (v *VariableReservoir) PIn() float64 { return v.st.PIn }

// TargetPIn returns the terminal insertion probability n_max·λ.
func (v *VariableReservoir) TargetPIn() float64 { return v.st.TargetPIn }

// Phases returns how many p_in reduction phases have run.
func (v *VariableReservoir) Phases() int { return v.st.Phases }

// InclusionProb implements Sampler. By Theorem 3.3 the mixed sample always
// satisfies proportionality to the *current* p_in times the bias function:
// p(r,t) = p_in(t)·e^{-λ(t-r)}, capped at 1.
func (v *VariableReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > v.st.T {
		return 0
	}
	p := v.st.PIn * math.Exp(-v.st.Lambda*float64(v.st.T-r))
	if p > 1 {
		return 1
	}
	return p
}
