package core

import (
	"fmt"
	"math"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// RTBSReservoir implements Reservoir-based Time-Biased Sampling (R-TBS)
// from Hentschel, Haas and Tian (arXiv 1801.09709 / 1906.05677): exact
// exponential decay like T-TBS, but within a hard memory bound of n items
// and with the *maximal* expected sample size achievable at that decay —
// the two properties Aggarwal's Algorithm 3.1 trades away for simplicity.
//
// The construction tracks the total decayed stream weight
//
//	W(t) = Σ_{r≤t} e^{-λ(t-r)} = (1 - e^{-λt}) / (1 - e^{-λ})
//
// and targets a latent sample of total weight C(t) = min(n, W(t)). The
// latent sample holds ⌊C⌋ "full" items of weight 1 plus at most one
// "partial" item of fractional weight f = C - ⌊C⌋ (the fractional-item
// trick). The delivered sample is the full items, plus the partial item
// with probability f (an independent delivery coin redrawn after every
// mutation), so every resident r is delivered with marginal probability
//
//	p(r,t) = C(t) · e^{-λ(t-r)} / W(t)   (exact, ≤ 1 since C ≤ W)
//
// and the expected delivered size is Σ_r p(r,t) = C(t) — the largest value
// any scheme with this decay profile and ≤ n items can achieve.
//
// Each arrival DOWNSAMPLEs the latent sample by the exact ratio its
// inclusion probabilities shrink, then UNIONs the new item in at weight
// C(t)/W(t); the branch probabilities below make the per-item delivery
// marginals telescope exactly. Work per arrival is O(1) expected.
type RTBSReservoir struct {
	st  rtbsState
	rng *xrand.Source
	ver uint64
}

// rtbsState is what an RTBSReservoir persists, latent partial item
// included.
type rtbsState struct {
	Lambda   float64
	Capacity int // n, the hard item bound
	T        uint64
	// Items holds the latent sample: Items[:NFull] are the full items and,
	// when HasPartial, Items[NFull] is the partial item of weight Frac.
	NFull      int
	HasPartial bool
	Frac       float64
	// Deliver is the partial item's current delivery coin, redrawn
	// Bernoulli(Frac) after every mutation.
	Deliver bool
	Items   []stream.Point
	RNG     []byte
}

var (
	_ Sampler          = (*RTBSReservoir)(nil)
	_ BatchSampler     = (*RTBSReservoir)(nil)
	_ Compactor        = (*RTBSReservoir)(nil)
	_ VersionedSampler = (*RTBSReservoir)(nil)
)

// fracEps absorbs float drift when a fractional weight lands on 0 or 1: a
// partial item within fracEps of weight 1 is normalized to a full item, and
// within fracEps of 0 is dropped.
const fracEps = 1e-9

// NewRTBSReservoir returns an R-TBS sampler with decay rate λ per arrival
// holding at most `capacity` items.
func NewRTBSReservoir(lambda float64, capacity int, rng *xrand.Source) (*RTBSReservoir, error) {
	if !(lambda > 0) || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
		return nil, fmt.Errorf("core: R-TBS needs finite λ > 0, got %v", lambda)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("core: R-TBS needs capacity > 0, got %d", capacity)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: R-TBS needs a random source")
	}
	return &RTBSReservoir{st: rtbsState{Lambda: lambda, Capacity: capacity}, rng: rng}, nil
}

// weightAt returns W(t) in the numerically stable closed form
// expm1(-λt)/expm1(-λ); for large λt it saturates cleanly at the steady
// state 1/(1-e^{-λ}). Computing W from t directly (rather than by the
// recurrence W ← W·e^{-λ}+1) keeps it free of accumulated float drift, so
// InclusionProb stays a pure function of (t, r).
func (s *RTBSReservoir) weightAt(t uint64) float64 {
	if t == 0 {
		return 0
	}
	return math.Expm1(-s.st.Lambda*float64(t)) / math.Expm1(-s.st.Lambda)
}

// latentAt returns C(t) = min(n, W(t)), the latent sample's total weight.
func (s *RTBSReservoir) latentAt(t uint64) float64 {
	return math.Min(float64(s.st.Capacity), s.weightAt(t))
}

// Add implements Sampler: one exact decay step followed by the weighted
// union of the arriving item.
func (s *RTBSReservoir) Add(p stream.Point) {
	s.ver++
	s.step(p, s.weightAt(s.st.T), math.Expm1(-s.st.Lambda))
	s.redraw()
}

// AddBatch implements BatchSampler. R-TBS arrivals are O(1) expected, so
// the batch path is the per-point loop with a single version bump and one
// delivery-coin redraw at the end (the coin is only observable between
// mutations, so redrawing once is distributionally identical). Each step
// hands W(t) to the next, so an arrival costs one expm1.
func (s *RTBSReservoir) AddBatch(pts []stream.Point) {
	if len(pts) == 0 {
		return
	}
	s.ver++
	w, den := s.weightAt(s.st.T), math.Expm1(-s.st.Lambda)
	for _, p := range pts {
		w = s.step(p, w, den)
	}
	s.redraw()
}

// step advances the clock by one arrival and folds p in. wOld is W(t)
// before the arrival and den weightAt's denominator expm1(-λ); it returns
// W(t+1), computed as weightAt computes it, so a carried W is bit for bit
// the one weightAt would return.
func (s *RTBSReservoir) step(p stream.Point, wOld, den float64) float64 {
	s.st.T++
	wNew := math.Expm1(-s.st.Lambda*float64(s.st.T)) / den
	cNew := math.Min(float64(s.st.Capacity), wNew)
	w := cNew / wNew // arriving item's weight, ≤ 1
	// Every existing item's inclusion probability shrinks by exactly
	// (C_new·e^{-λ}·W_old) / (W_new·C_old) = (C_new - w)/C_old.
	if cOld := math.Min(float64(s.st.Capacity), wOld); cOld > 0 {
		s.downsample((cNew - w) / cOld)
	}
	s.union(p, w)
	return wNew
}

// downsample scales every resident's delivery marginal by exactly alpha,
// restructuring the latent sample from total weight c = k + f to
// α·c = k_t + f_t. The old partial item (weight f) is promoted to full,
// kept partial at weight f_t, or evicted with probabilities chosen so its
// marginal becomes exactly α·f:
//
//	α·f > f_t:  promote w.p. (α·f - f_t)/(1 - f_t), else stay
//	α·f ≤ f_t:  stay    w.p. α·f/f_t,               else evict
//
// A promoted item is a full item unconditionally from here on (it is held
// out of this round's eviction/demotion pool). The remaining full items
// are evicted uniformly down to k_t, one survivor becoming the new partial
// when the partial slot is empty and f_t > 0 — which scales each full
// item's marginal to exactly α as well (see docs/THEORY.md §11).
func (s *RTBSReservoir) downsample(alpha float64) {
	cOld := float64(s.st.NFull) + s.st.Frac
	if cOld <= 0 || alpha >= 1 {
		return
	}
	if alpha < 0 {
		alpha = 0
	}
	cTarget := alpha * cOld
	kT := int(cTarget)
	fT := cTarget - float64(kT)
	if fT < fracEps {
		fT = 0
	} else if fT > 1-fracEps {
		kT++
		fT = 0
	}

	lo := 0 // fulls below this index are exempt from eviction/demotion
	partialStays := false
	if s.st.HasPartial {
		af := alpha * s.st.Frac
		u := s.rng.Float64()
		switch {
		case af > fT && u < (af-fT)/(1-fT):
			// Promote: the partial item becomes an unconditional full. It
			// already sits at Items[NFull]; move it to slot 0 so the
			// uniform eviction/demotion below cannot touch it.
			s.st.HasPartial = false
			s.st.Frac = 0
			s.st.NFull++
			s.st.Items[0], s.st.Items[s.st.NFull-1] = s.st.Items[s.st.NFull-1], s.st.Items[0]
			lo = 1
		case af > fT || (fT > 0 && u < af/fT):
			partialStays = true
		default:
			s.evictPartial()
		}
	}

	needPartial := fT > 0 && !partialStays
	targetFulls := kT
	if needPartial {
		targetFulls++ // one survivor is demoted to partial below
	}
	for s.st.NFull > targetFulls {
		s.evictFull(lo + s.rng.Intn(s.st.NFull-lo))
	}
	if needPartial {
		s.demoteFull(lo + s.rng.Intn(s.st.NFull-lo))
	}
	if s.st.HasPartial {
		s.st.Frac = fT
		if fT == 0 {
			s.evictPartial() // a zero-weight partial is simply absent
		}
	} else {
		s.st.Frac = 0
	}
}

// union inserts an item of weight w ≤ 1 into the latent sample, merging
// with the existing partial item so at most one fractional weight remains.
// The branch probabilities preserve both items' delivery marginals exactly.
func (s *RTBSReservoir) union(p stream.Point, w float64) {
	if w <= fracEps {
		return
	}
	if w >= 1-fracEps {
		s.addFull(p)
		return
	}
	if !s.st.HasPartial {
		s.setPartial(p, w)
		return
	}
	f := s.st.Frac
	total := f + w
	switch {
	case total < 1-fracEps:
		// Two fractions merge into one partial of weight f+w; the survivor
		// is the new item w.p. w/(f+w), preserving both marginals.
		if s.rng.Bernoulli(w / total) {
			s.st.Items[s.st.NFull] = own(p)
		}
		s.st.Frac = total
	case total <= 1+fracEps:
		// The weights sum to 1: one of the two becomes a full item (the
		// new one w.p. w/(f+w) ≈ w), the other is evicted.
		if s.rng.Bernoulli(w / total) {
			s.st.Items[s.st.NFull] = own(p)
		}
		s.st.NFull++
		s.st.HasPartial = false
		s.st.Frac = 0
	default:
		// Overflow: one becomes full, the other partial at weight
		// f' = f+w-1. P[new is the full] = (w-f')/(1-f') makes the new
		// item's marginal exactly w·1 + (1-·)·f' = w, and the old one's f.
		fp := total - 1
		s.st.Items = append(s.st.Items, own(p)) // layout: [fulls..., old, p]
		if s.rng.Bernoulli((w - fp) / (1 - fp)) {
			last := len(s.st.Items) - 1
			s.st.Items[s.st.NFull], s.st.Items[last] = s.st.Items[last], s.st.Items[s.st.NFull]
		}
		s.st.NFull++ // Items[NFull-1] is the winner, Items[NFull] the partial
		s.st.Frac = fp
	}
}

// addFull appends a full item, keeping the partial (if any) at the tail.
func (s *RTBSReservoir) addFull(p stream.Point) {
	s.st.Items = append(s.st.Items, own(p))
	if s.st.HasPartial {
		last := len(s.st.Items) - 1
		s.st.Items[s.st.NFull], s.st.Items[last] = s.st.Items[last], s.st.Items[s.st.NFull]
	}
	s.st.NFull++
}

// setPartial installs p as the partial item of weight w (no partial may
// exist).
func (s *RTBSReservoir) setPartial(p stream.Point, w float64) {
	s.st.Items = append(s.st.Items, own(p))
	s.st.HasPartial = true
	s.st.Frac = w
}

// evictFull removes full item i by swap-remove, keeping the partial (if
// any) at the tail.
func (s *RTBSReservoir) evictFull(i int) {
	s.st.Items[i] = s.st.Items[s.st.NFull-1]
	if s.st.HasPartial {
		s.st.Items[s.st.NFull-1] = s.st.Items[s.st.NFull]
	}
	s.st.Items = s.st.Items[:len(s.st.Items)-1]
	s.st.NFull--
}

// evictPartial drops the partial item.
func (s *RTBSReservoir) evictPartial() {
	s.st.Items = s.st.Items[:len(s.st.Items)-1]
	s.st.HasPartial = false
	s.st.Frac = 0
}

// demoteFull turns full item i into the partial item (no partial may
// exist).
func (s *RTBSReservoir) demoteFull(i int) {
	s.st.Items[i], s.st.Items[s.st.NFull-1] = s.st.Items[s.st.NFull-1], s.st.Items[i]
	s.st.NFull--
	s.st.HasPartial = true
}

// redraw refreshes the partial item's delivery coin.
func (s *RTBSReservoir) redraw() {
	if s.st.HasPartial {
		s.st.Deliver = s.rng.Bernoulli(s.st.Frac)
	} else {
		s.st.Deliver = false
	}
}

// delivered returns how many leading items of s.st.Items are in the delivered
// sample.
func (s *RTBSReservoir) delivered() int {
	if s.st.HasPartial && s.st.Deliver {
		return s.st.NFull + 1
	}
	return s.st.NFull
}

// Points implements Sampler: the delivered sample as a read-only view.
func (s *RTBSReservoir) Points() []stream.Point { return s.st.Items[:s.delivered()] }

// Sample implements Sampler.
func (s *RTBSReservoir) Sample() []stream.Point { return copyPoints(s.Points()) }

// Len implements Sampler: the delivered sample size.
func (s *RTBSReservoir) Len() int { return s.delivered() }

// Capacity implements Sampler: the hard item bound n.
func (s *RTBSReservoir) Capacity() int { return s.st.Capacity }

// Processed implements Sampler.
func (s *RTBSReservoir) Processed() uint64 { return s.st.T }

// Version implements VersionedSampler.
func (s *RTBSReservoir) Version() uint64 { return s.ver }

// Lambda returns the decay rate λ the sampler realizes.
func (s *RTBSReservoir) Lambda() float64 { return s.st.Lambda }

// PIn returns the newest arrival's inclusion probability C(t)/W(t) (1 while
// the stream still fits the reservoir).
func (s *RTBSReservoir) PIn() float64 {
	if s.st.T == 0 {
		return 1
	}
	return s.latentAt(s.st.T) / s.weightAt(s.st.T)
}

// TotalWeight returns W(t), the decayed weight of the whole stream.
func (s *RTBSReservoir) TotalWeight() float64 { return s.weightAt(s.st.T) }

// LatentWeight returns C(t) = min(n, W(t)), the expected delivered sample
// size.
func (s *RTBSReservoir) LatentWeight() float64 { return s.latentAt(s.st.T) }

// InclusionProb implements Sampler. The closed form is exact by
// construction: p(r,t) = C(t)·e^{-λ(t-r)}/W(t) ≤ 1.
func (s *RTBSReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > s.st.T {
		return 0
	}
	w := s.weightAt(s.st.T)
	if w <= 0 {
		return 0
	}
	return s.latentAt(s.st.T) * math.Exp(-s.st.Lambda*float64(s.st.T-r)) / w
}

// CompactBelow implements Compactor: residents whose delivery marginal has
// fallen below the floor are dropped in place (the same ≤ floor bias bound
// as the other decay samplers, docs/THEORY.md §10).
func (s *RTBSReservoir) CompactBelow(floor float64) int {
	if !(floor > 0) {
		return 0
	}
	removed := 0
	if s.st.HasPartial && s.InclusionProb(s.st.Items[s.st.NFull].Index) < floor {
		s.evictPartial()
		removed++
	}
	for i := 0; i < s.st.NFull; {
		if s.InclusionProb(s.st.Items[i].Index) < floor {
			s.evictFull(i)
			removed++
		} else {
			i++
		}
	}
	if removed > 0 {
		s.ver++
		s.redraw()
	}
	return removed
}
