package core

import (
	"fmt"
	"math"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// ZReservoir is Vitter's Algorithm Z: the constant-time refinement of
// Algorithm X. Both maintain the uniform reservoir distribution
// (Property 2.1) by drawing how many arrivals to skip before the next
// replacement, but where X generates each skip by an O(skip) sequential
// search, Z draws it by rejection sampling from a close-fitting envelope
// distribution, costing O(1) random numbers per replacement regardless of
// stream position. Following Vitter, the sampler runs Algorithm X's
// search (skipFor) until t exceeds thresholdFactor·n, after which the skip
// lengths are large enough for rejection to win.
//
// It exists as the high-throughput unbiased baseline; the statistical tests
// assert it is exactly Algorithm R in distribution.
type ZReservoir struct {
	st  zState
	rng *xrand.Source
	ver uint64
}

// zState is what a ZReservoir persists.
type zState struct {
	Capacity int
	T        uint64
	Skip     uint64
	W        float64 // Vitter's W state for the envelope
	Pts      []stream.Point
	RNG      []byte
}

// thresholdFactor is Vitter's T: switch from X-style search to rejection
// once t > T·n. Vitter recommends T = 22.
const thresholdFactor = 22

var _ Sampler = (*ZReservoir)(nil)

// NewZReservoir returns an Algorithm Z reservoir of the given capacity.
func NewZReservoir(capacity int, rng *xrand.Source) (*ZReservoir, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: Z reservoir needs capacity > 0, got %d", capacity)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: Z reservoir needs a random source")
	}
	return &ZReservoir{
		st:  zState{Capacity: capacity, Pts: make([]stream.Point, 0, capacity)},
		rng: rng,
	}, nil
}

// Add implements Sampler.
func (z *ZReservoir) Add(p stream.Point) {
	z.ver++
	z.st.T++
	if len(z.st.Pts) < z.st.Capacity {
		z.st.Pts = append(z.st.Pts, own(p))
		if len(z.st.Pts) == z.st.Capacity {
			z.st.W = math.Exp(-math.Log(z.u01()) / float64(z.st.Capacity))
			z.st.Skip = z.drawSkip()
		}
		return
	}
	if z.st.Skip > 0 {
		z.st.Skip--
		return
	}
	z.st.Pts[z.rng.Intn(z.st.Capacity)] = own(p)
	z.st.Skip = z.drawSkip()
}

// AddBatch implements BatchSampler. It consumes identical random draws to
// Add-ing each point in order — same skips, same replacement slots — but
// the skip counter is decremented in bulk: a skip that covers the rest of
// the batch costs one subtraction instead of one call per arrival. Once t
// is large the skips average t/n arrivals, so steady-state batch ingest
// approaches O(1) work per batch rather than per point.
func (z *ZReservoir) AddBatch(pts []stream.Point) {
	n := len(pts)
	z.ver++
	i := 0
	// Fill phase (and the W/skip bootstrap when capacity is reached).
	for i < n && len(z.st.Pts) < z.st.Capacity {
		z.Add(pts[i])
		i++
	}
	for i < n {
		remaining := uint64(n - i)
		if z.st.Skip >= remaining {
			z.st.Skip -= remaining
			z.st.T += remaining
			return
		}
		i += int(z.st.Skip)
		z.st.T += z.st.Skip + 1
		z.st.Pts[z.rng.Intn(z.st.Capacity)] = own(pts[i])
		z.st.Skip = z.drawSkip()
		i++
	}
}

// u01 returns a uniform variate in (0, 1].
func (z *ZReservoir) u01() float64 {
	for {
		if u := z.rng.Float64(); u > 0 {
			return u
		}
	}
}

// drawSkip generates the number of arrivals to pass over before the next
// replacement, given t arrivals processed so far.
func (z *ZReservoir) drawSkip() uint64 {
	n := float64(z.st.Capacity)
	if z.st.T <= uint64(thresholdFactor*z.st.Capacity) {
		return z.searchSkip()
	}
	// Vitter's Algorithm Z rejection step.
	t := float64(z.st.T)
	term := t - n + 1
	for {
		// Generate X from the envelope g(x) = (n/(t+x))·(t/(t+x))^n
		// via the maintained W.
		x := t * (z.st.W - 1)
		skip := math.Floor(x)
		// Quick acceptance test against a cheaper function h.
		u := z.u01()
		lhs := math.Exp(math.Log(u*(t+1)/term*(t+1)/term*(term+skip)/(t+x)) / n)
		rhs := (t + x) / (term + skip) * term / t
		if lhs <= rhs {
			z.st.W = rhs / lhs
			return uint64(skip)
		}
		// Full acceptance test against the exact distribution.
		var denom, numerLim float64
		if n > skip {
			denom = t
			numerLim = term + skip
		} else {
			denom = t - n + skip
			numerLim = t + 1
		}
		y := u * (t + 1) / term * (t + skip + 1) / (t + x)
		for numer := t + skip; numer >= numerLim; numer-- {
			y *= numer / denom
			denom--
		}
		z.st.W = math.Exp(-math.Log(z.u01()) / n)
		if math.Exp(math.Log(y)/n) <= (t+x)/t {
			return uint64(skip)
		}
		// Rejected: redraw with a fresh envelope variate.
	}
}

// searchSkip is Algorithm X's sequential inversion, used below the
// threshold where rejection would be wasteful. The uniform comes from
// u01, not Float64: a draw of exactly 0 would keep the loop grinding
// until quot underflows.
func (z *ZReservoir) searchSkip() uint64 { return skipFor(z.st.Capacity, z.st.T, z.u01()) }

// skipFor inverts the skip distribution P(S >= s) = Π_{i=1..s}
// (t+i-n)/(t+i) of an n-slot reservoir after t arrivals at the uniform
// u: the smallest s with P(S >= s+1) < u. A u at or below 0 is clamped
// to 2^-53 and the loop also stops when quot reaches 0, so no input makes
// it spin unbounded.
func skipFor(n int, t uint64, u float64) uint64 {
	if u <= 0 {
		u = 0x1p-53
	}
	nf, tf := float64(n), float64(t)
	// quot = P(S >= skip+1), shrinking as skip grows.
	var skip uint64
	quot := (tf + 1 - nf) / (tf + 1)
	for quot > u && quot > 0 {
		skip++
		tt := tf + float64(skip) + 1
		quot *= (tt - nf) / tt
	}
	return skip
}

// Points implements Sampler.
func (z *ZReservoir) Points() []stream.Point { return z.st.Pts }

// Sample implements Sampler.
func (z *ZReservoir) Sample() []stream.Point { return copyPoints(z.st.Pts) }

// Len implements Sampler.
func (z *ZReservoir) Len() int { return len(z.st.Pts) }

// Capacity implements Sampler.
func (z *ZReservoir) Capacity() int { return z.st.Capacity }

// Processed implements Sampler.
func (z *ZReservoir) Processed() uint64 { return z.st.T }

// Version implements VersionedSampler.
func (z *ZReservoir) Version() uint64 { return z.ver }

// InclusionProb implements Sampler (Property 2.1).
func (z *ZReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > z.st.T || z.st.T == 0 {
		return 0
	}
	p := float64(z.st.Capacity) / float64(z.st.T)
	if p > 1 {
		return 1
	}
	return p
}
