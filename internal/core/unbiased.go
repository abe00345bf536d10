package core

import (
	"fmt"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// UnbiasedReservoir is the classical reservoir sampling algorithm of
// Vitter (Algorithm R), the baseline the paper compares against throughout
// its evaluation. The first n points initialize the reservoir; the (t+1)-th
// point then replaces a uniformly random resident with probability n/(t+1).
// Property 2.1: after t arrivals every stream point is present with
// probability n/t.
type UnbiasedReservoir struct {
	capacity int
	pts      []stream.Point
	t        uint64
	rng      *xrand.Source
	ver      uint64
}

var _ Sampler = (*UnbiasedReservoir)(nil)

// NewUnbiasedReservoir returns an unbiased reservoir of the given capacity.
// rng must be non-nil.
func NewUnbiasedReservoir(capacity int, rng *xrand.Source) (*UnbiasedReservoir, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: unbiased reservoir needs capacity > 0, got %d", capacity)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: unbiased reservoir needs a random source")
	}
	return &UnbiasedReservoir{
		capacity: capacity,
		pts:      make([]stream.Point, 0, capacity),
		rng:      rng,
	}, nil
}

// Add implements Sampler.
func (u *UnbiasedReservoir) Add(p stream.Point) {
	u.ver++
	u.t++
	if len(u.pts) < u.capacity {
		u.pts = append(u.pts, own(p))
		return
	}
	// Replace a random resident with probability capacity/t.
	if u.rng.Float64()*float64(u.t) < float64(u.capacity) {
		u.pts[u.rng.Intn(u.capacity)] = own(p)
	}
}

// Points implements Sampler.
func (u *UnbiasedReservoir) Points() []stream.Point { return u.pts }

// Sample implements Sampler.
func (u *UnbiasedReservoir) Sample() []stream.Point { return copyPoints(u.pts) }

// Len implements Sampler.
func (u *UnbiasedReservoir) Len() int { return len(u.pts) }

// Capacity implements Sampler.
func (u *UnbiasedReservoir) Capacity() int { return u.capacity }

// Processed implements Sampler.
func (u *UnbiasedReservoir) Processed() uint64 { return u.t }

// Version implements VersionedSampler.
func (u *UnbiasedReservoir) Version() uint64 { return u.ver }

// InclusionProb implements Sampler: Property 2.1, p(r,t) = min(1, n/t).
func (u *UnbiasedReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > u.t || u.t == 0 {
		return 0
	}
	p := float64(u.capacity) / float64(u.t)
	if p > 1 {
		return 1
	}
	return p
}
