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
	st  unbiasedState
	rng *xrand.Source
	ver uint64
}

// unbiasedState is what an UnbiasedReservoir persists.
type unbiasedState struct {
	Capacity int
	T        uint64
	Pts      []stream.Point
	RNG      []byte
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
		st:  unbiasedState{Capacity: capacity, Pts: make([]stream.Point, 0, capacity)},
		rng: rng,
	}, nil
}

// Add implements Sampler.
func (u *UnbiasedReservoir) Add(p stream.Point) {
	u.ver++
	u.st.T++
	if len(u.st.Pts) < u.st.Capacity {
		u.st.Pts = append(u.st.Pts, own(p))
		return
	}
	// Replace a random resident with probability capacity/t.
	if u.rng.Float64()*float64(u.st.T) < float64(u.st.Capacity) {
		u.st.Pts[u.rng.Intn(u.st.Capacity)] = own(p)
	}
}

// Points implements Sampler.
func (u *UnbiasedReservoir) Points() []stream.Point { return u.st.Pts }

// Sample implements Sampler.
func (u *UnbiasedReservoir) Sample() []stream.Point { return copyPoints(u.st.Pts) }

// Len implements Sampler.
func (u *UnbiasedReservoir) Len() int { return len(u.st.Pts) }

// Capacity implements Sampler.
func (u *UnbiasedReservoir) Capacity() int { return u.st.Capacity }

// Processed implements Sampler.
func (u *UnbiasedReservoir) Processed() uint64 { return u.st.T }

// Version implements VersionedSampler.
func (u *UnbiasedReservoir) Version() uint64 { return u.ver }

// InclusionProb implements Sampler: Property 2.1, p(r,t) = min(1, n/t).
func (u *UnbiasedReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > u.st.T || u.st.T == 0 {
		return 0
	}
	p := float64(u.st.Capacity) / float64(u.st.T)
	if p > 1 {
		return 1
	}
	return p
}
