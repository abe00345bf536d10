package core

import (
	"encoding"
	"fmt"
	"math"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// PersistentSampler groups Sampler with binary snapshot support; every
// sampler in this package implements it.
type PersistentSampler interface {
	Sampler
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// TimedSampler is a Sampler with a wall-clock ingest path: points carry
// their own timestamps and decay in time rather than arrival count.
// TimeDecayReservoir implements it directly; TieredReservoir implements it
// when every tier does.
type TimedSampler interface {
	Sampler

	// AddAt admits a point at timestamp ts. Timestamps must be
	// non-decreasing; an out-of-order point is rejected with an error and
	// changes no state.
	AddAt(p stream.Point, ts float64) error

	// Now returns the sampler's clock: the largest timestamp seen.
	Now() float64
}

// Compactor is implemented by decay-biased samplers that can drop residents
// whose inclusion probability has fallen below a floor. Compaction bounds
// the Horvitz-Thompson weight of any resident at 1/floor at the cost of a
// bias of at most `floor` per in-horizon point (see docs/THEORY.md §10); the
// retention sweep uses it to reclaim fully-decayed tiers.
type Compactor interface {
	// CompactBelow removes every resident with InclusionProb < floor and
	// returns how many were removed. A floor <= 0 removes nothing.
	CompactBelow(floor float64) int
}

var (
	_ Compactor = (*BiasedReservoir)(nil)
	_ Compactor = (*VariableReservoir)(nil)
	_ Compactor = (*TimeDecayReservoir)(nil)
	_ Compactor = (*TieredReservoir)(nil)

	_ TimedSampler = (*TimeDecayReservoir)(nil)

	_ BatchSampler     = (*TieredReservoir)(nil)
	_ VersionedSampler = (*TieredReservoir)(nil)
)

// CompactBelow implements Compactor: residents with
// p_in·e^{-λ(t-r)} < floor are dropped in place.
func (b *BiasedReservoir) CompactBelow(floor float64) int {
	return compactPts(&b.st.Pts, &b.ver, floor, b.InclusionProb)
}

// CompactBelow implements Compactor. Compaction never changes p_in or the
// phase schedule — it only removes points whose retention probability has
// decayed below the floor.
func (v *VariableReservoir) CompactBelow(floor float64) int {
	return compactPts(&v.st.Pts, &v.ver, floor, v.InclusionProb)
}

// compactPts drops in place every point of *pts whose inclusion
// probability is below floor, clears the vacated slots, and counts a
// mutation in *ver when any point went.
func compactPts(pts *[]stream.Point, ver *uint64, floor float64, prob func(uint64) float64) int {
	if !(floor > 0) {
		return 0
	}
	keep := (*pts)[:0]
	for _, p := range *pts {
		if prob(p.Index) >= floor {
			keep = append(keep, p)
		}
	}
	removed := len(*pts) - len(keep)
	clear((*pts)[len(keep):])
	*pts = keep
	if removed > 0 {
		*ver++
	}
	return removed
}

// CompactBelow implements Compactor against the wall-clock inclusion
// probability p_in·e^{-λ(now-T_r)}.
func (d *TimeDecayReservoir) CompactBelow(floor float64) int {
	if !(floor > 0) {
		return 0
	}
	removed := 0
	for i := 0; i < len(d.st.Items); {
		p := d.st.PIn * math.Exp(-d.st.Lambda*(d.st.Now-d.st.Items[i].TS))
		if p < floor {
			d.removeAt(i)
			removed++
		} else {
			i++
		}
	}
	if removed > 0 {
		d.ver++
	}
	return removed
}

// TieredReservoir maintains a ladder of reservoirs over the same stream at
// geometrically-spaced bias rates: tier 0 runs at the configured λ (the
// shortest effective horizon 1/λ) and each deeper tier divides λ by the
// ratio, multiplying the horizon by it. Every arrival fans out to every
// tier, so each tier is a complete, independent biased sample of the whole
// stream — a query with horizon h is then served by the shallowest tier
// whose horizon covers h, which is the variance-minimizing choice (see
// docs/THEORY.md §10).
//
// Under the plain Sampler interface a TieredReservoir behaves exactly as
// its tier-0 reservoir (reads delegate there), so wrapping a single-λ
// stream in a 1-tier ladder is behavior-preserving. The extra tiers are
// reached through Tier/TierCache/SelectTier.
//
// Like every sampler in this package, a TieredReservoir is not safe for
// concurrent use; the per-tier SnapshotCaches exist so that *readers* of a
// quiescent ladder can share tier snapshots lock-free, exactly like the
// single-sampler cache.
type TieredReservoir struct {
	ratio   float64
	lambdas []float64
	tiers   []*tierSlot
	timed   bool
	ver     uint64
}

type tierSlot struct {
	s         PersistentSampler
	cache     SnapshotCache
	compacted uint64 // points removed by CompactBelow, lifetime total
	drops     uint64 // CompactBelow calls that left the tier empty
}

// NewTieredReservoir builds a ladder of `tiers` reservoirs: tier i runs at
// λ_i = lambda/ratio^i and is constructed by build(i, λ_i, rng_i) with an
// independent split of rng. tiers must be >= 1 and ratio > 1 (a 1-tier
// ladder ignores the ratio beyond validation).
func NewTieredReservoir(lambda, ratio float64, tiers int, rng *xrand.Source, build func(i int, lambda float64, rng *xrand.Source) (PersistentSampler, error)) (*TieredReservoir, error) {
	if tiers < 1 {
		return nil, fmt.Errorf("core: tiered reservoir needs >= 1 tier, got %d", tiers)
	}
	if !(lambda > 0) || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("core: tiered reservoir needs finite λ > 0, got %v", lambda)
	}
	if !(ratio > 1) || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		return nil, fmt.Errorf("core: tier ratio must be > 1, got %v", ratio)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: tiered reservoir needs a random source")
	}
	if build == nil {
		return nil, fmt.Errorf("core: tiered reservoir needs a tier factory")
	}
	tr := &TieredReservoir{
		ratio:   ratio,
		lambdas: make([]float64, tiers),
		tiers:   make([]*tierSlot, tiers),
		timed:   true,
	}
	l := lambda
	for i := 0; i < tiers; i++ {
		tr.lambdas[i] = l
		s, err := build(i, l, rng.Split())
		if err != nil {
			return nil, fmt.Errorf("core: building tier %d (λ=%.4g): %w", i, l, err)
		}
		if _, ok := s.(TimedSampler); !ok {
			tr.timed = false
		}
		tr.tiers[i] = &tierSlot{s: s}
		l /= ratio
	}
	return tr, nil
}

func (tr *TieredReservoir) mutated() {
	tr.ver++
	for _, t := range tr.tiers {
		t.cache.Invalidate()
	}
}

// Add implements Sampler: the arrival fans out to every tier.
func (tr *TieredReservoir) Add(p stream.Point) {
	for _, t := range tr.tiers {
		t.s.Add(p)
	}
	tr.mutated()
}

// AddBatch implements BatchSampler: one batch fan-out per tier, using each
// tier's own batch fast path.
func (tr *TieredReservoir) AddBatch(pts []stream.Point) {
	for _, t := range tr.tiers {
		AddBatch(t.s, pts)
	}
	tr.mutated()
}

// AddAt implements TimedSampler when every tier is time-decayed. The
// timestamp is validated once against the shared clock, so the fan-out
// either applies to every tier or to none.
func (tr *TieredReservoir) AddAt(p stream.Point, ts float64) error {
	if !tr.timed {
		return fmt.Errorf("core: tiered reservoir's tiers are not time-decayed")
	}
	if ts < tr.Now() {
		return fmt.Errorf("core: out-of-order timestamp %v < %v", ts, tr.Now())
	}
	for i, t := range tr.tiers {
		if err := t.s.(TimedSampler).AddAt(p, ts); err != nil {
			return fmt.Errorf("core: tier %d: %w", i, err)
		}
	}
	tr.mutated()
	return nil
}

// Now implements TimedSampler (0 for ladders that are not time-decayed).
func (tr *TieredReservoir) Now() float64 {
	if !tr.timed {
		return 0
	}
	return tr.tiers[0].s.(TimedSampler).Now()
}

// Timed reports whether the ladder supports the AddAt ingest path.
func (tr *TieredReservoir) Timed() bool { return tr.timed }

// AsTimed returns s as a TimedSampler when it supports wall-clock ingest.
// Wrappers that implement the interface conditionally (TieredReservoir over
// arrival-indexed tiers) expose Timed(); AsTimed honours it, so callers use
// this instead of a bare type assertion.
func AsTimed(s Sampler) (TimedSampler, bool) {
	ts, ok := s.(TimedSampler)
	if !ok {
		return nil, false
	}
	if c, ok := s.(interface{ Timed() bool }); ok && !c.Timed() {
		return nil, false
	}
	return ts, true
}

// PIn returns tier 0's insertion probability when it exposes one, else 1.
func (tr *TieredReservoir) PIn() float64 {
	if p, ok := tr.tiers[0].s.(interface{ PIn() float64 }); ok {
		return p.PIn()
	}
	return 1
}

// Points implements Sampler (tier 0's reservoir).
func (tr *TieredReservoir) Points() []stream.Point { return tr.tiers[0].s.Points() }

// Sample implements Sampler (tier 0's reservoir).
func (tr *TieredReservoir) Sample() []stream.Point { return tr.tiers[0].s.Sample() }

// Len implements Sampler (tier 0's reservoir; see TotalLen).
func (tr *TieredReservoir) Len() int { return tr.tiers[0].s.Len() }

// Capacity implements Sampler (tier 0's capacity; see TotalCapacity).
func (tr *TieredReservoir) Capacity() int { return tr.tiers[0].s.Capacity() }

// Processed implements Sampler. Every tier sees every arrival, so the
// stream position is shared.
func (tr *TieredReservoir) Processed() uint64 { return tr.tiers[0].s.Processed() }

// InclusionProb implements Sampler (tier 0's inclusion probability).
func (tr *TieredReservoir) InclusionProb(r uint64) float64 {
	return tr.tiers[0].s.InclusionProb(r)
}

// Version implements VersionedSampler.
func (tr *TieredReservoir) Version() uint64 { return tr.ver }

// Lambda returns tier 0's bias rate — the λ the stream was configured with.
func (tr *TieredReservoir) Lambda() float64 { return tr.lambdas[0] }

// Ratio returns the geometric spacing between consecutive tier λs.
func (tr *TieredReservoir) Ratio() float64 { return tr.ratio }

// NumTiers returns the ladder depth.
func (tr *TieredReservoir) NumTiers() int { return len(tr.tiers) }

// TierLambda returns tier i's bias rate λ_i = λ/ratio^i.
func (tr *TieredReservoir) TierLambda(i int) float64 { return tr.lambdas[i] }

// TierHorizon returns tier i's effective horizon 1/λ_i: the number of
// recent arrivals the tier's sample meaningfully covers (docs/THEORY.md §10).
func (tr *TieredReservoir) TierHorizon(i int) float64 { return 1 / tr.lambdas[i] }

// Tier returns tier i's underlying sampler. Mutating it directly bypasses
// the ladder's cache invalidation; treat it as read-only.
func (tr *TieredReservoir) Tier(i int) Sampler { return tr.tiers[i].s }

// TierCache returns tier i's snapshot cache. The ladder invalidates it on
// every mutation; callers supply a build closure that locks whatever guards
// the ladder's mutators.
func (tr *TieredReservoir) TierCache(i int) *SnapshotCache { return &tr.tiers[i].cache }

// TotalLen returns the resident count summed over all tiers.
func (tr *TieredReservoir) TotalLen() int {
	n := 0
	for _, t := range tr.tiers {
		n += t.s.Len()
	}
	return n
}

// TotalCapacity returns the ladder's whole memory budget in points.
func (tr *TieredReservoir) TotalCapacity() int {
	n := 0
	for _, t := range tr.tiers {
		n += t.s.Capacity()
	}
	return n
}

// SelectTier returns the tier that minimizes estimator variance for a query
// over the last h arrivals: the shallowest tier whose effective horizon
// 1/λ_i covers h. Overshooting the horizon costs only linearly in ratio,
// while undershooting costs exponentially in h·λ (docs/THEORY.md §10), so
// when no tier covers h — including h = 0, "the whole stream" — the deepest
// (longest-horizon) tier is returned.
func (tr *TieredReservoir) SelectTier(h uint64) int {
	if h == 0 {
		return len(tr.tiers) - 1
	}
	for i := range tr.tiers {
		if 1/tr.lambdas[i] >= float64(h) {
			return i
		}
	}
	return len(tr.tiers) - 1
}

// CompactBelow implements Compactor: the floor fans out to every tier that
// supports compaction. A call that empties a non-empty tier counts as a
// drop (the retention metric "this tier's data had fully decayed").
func (tr *TieredReservoir) CompactBelow(floor float64) int {
	total := 0
	for _, t := range tr.tiers {
		c, ok := t.s.(Compactor)
		if !ok {
			continue
		}
		hadPoints := t.s.Len() > 0
		removed := c.CompactBelow(floor)
		if removed > 0 {
			total += removed
			t.compacted += uint64(removed)
			if hadPoints && t.s.Len() == 0 {
				t.drops++
			}
		}
	}
	if total > 0 {
		tr.mutated()
	}
	return total
}

// TierStats is a point-in-time read of one tier's state, for metrics and
// for the tiers of a stream's stats body. Its fields are declared in JSON
// key order, like every body in internal/httpapi.
type TierStats struct {
	Capacity  int     `json:"capacity"`
	Compacted uint64  `json:"compacted"` // points removed by retention, lifetime total
	Drops     uint64  `json:"drops"`     // retention sweeps that emptied the tier
	Horizon   float64 `json:"horizon"`
	Index     int     `json:"index"`
	Lambda    float64 `json:"lambda"`
	Len       int     `json:"size"`
}

// Stats returns tier i's metrics snapshot.
func (tr *TieredReservoir) Stats(i int) TierStats {
	t := tr.tiers[i]
	return TierStats{
		Index:     i,
		Lambda:    tr.lambdas[i],
		Horizon:   1 / tr.lambdas[i],
		Len:       t.s.Len(),
		Capacity:  t.s.Capacity(),
		Compacted: t.compacted,
		Drops:     t.drops,
	}
}
