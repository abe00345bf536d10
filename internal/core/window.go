package core

import (
	"fmt"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// WindowReservoir maintains a uniform random sample of the last W stream
// points — the pure sliding-window approach the paper discusses (and
// rejects as "another extreme and rather unstable solution") as the obvious
// alternative to biased sampling. It exists as an experimental baseline.
//
// The implementation is chain sampling (Babcock, Datar & Motwani 2002): each
// of the n sample slots independently maintains one uniform sample of the
// current window. When point t arrives it becomes slot i's sample with
// probability 1/min(t, W); whenever a point is sampled, the index of its
// replacement is drawn uniformly from the W arrivals that follow it, and the
// chain of replacements is stored as those points arrive. Expected memory is
// O(n) chains of O(1) expected length, independent of W.
type WindowReservoir struct {
	window   uint64
	capacity int
	slots    []windowChain
	t        uint64
	rng      *xrand.Source
	ver      uint64
}

// windowChain is one slot's chain: the current sample followed by its
// already-materialized future replacements, and the arrival index at which
// the next link will be captured.
type windowChain struct {
	chain []stream.Point // chain[0] is the slot's current sample
	next  uint64         // arrival index of the next link to capture (0 = none pending)
}

var _ Sampler = (*WindowReservoir)(nil)

// NewWindowReservoir returns a sampler holding `capacity` uniform samples of
// the most recent `window` points.
func NewWindowReservoir(window uint64, capacity int, rng *xrand.Source) (*WindowReservoir, error) {
	if window == 0 {
		return nil, fmt.Errorf("core: window reservoir needs window > 0")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("core: window reservoir needs capacity > 0, got %d", capacity)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: window reservoir needs a random source")
	}
	return &WindowReservoir{
		window:   window,
		capacity: capacity,
		slots:    make([]windowChain, capacity),
		rng:      rng,
	}, nil
}

// Add implements Sampler.
func (w *WindowReservoir) Add(p stream.Point) {
	w.ver++
	w.t++
	m := w.t
	if m > w.window {
		m = w.window
	}
	// Slots that capture p share one owned copy of its values.
	owned := false
	for i := range w.slots {
		s := &w.slots[i]
		// Expire the head while it has fallen out of the window and a
		// replacement is available.
		for len(s.chain) > 1 && w.t-s.chain[0].Index >= w.window {
			s.chain = s.chain[1:]
		}
		// Capture a pending chain link.
		if s.next != 0 && s.next == w.t {
			if !owned {
				p, owned = own(p), true
			}
			s.chain = append(s.chain, p)
			s.next = w.scheduleNext(p.Index)
		}
		// Fresh sample with probability 1/min(t, W): the new point
		// replaces the whole chain.
		if w.rng.Float64()*float64(m) < 1 {
			if !owned {
				p, owned = own(p), true
			}
			s.chain = append(s.chain[:0], p)
			s.next = w.scheduleNext(p.Index)
		}
	}
}

// scheduleNext draws the replacement index uniformly from (r, r+W].
func (w *WindowReservoir) scheduleNext(r uint64) uint64 {
	return r + 1 + w.rng.Uint64n(w.window)
}

// Points implements Sampler: the current (in-window) sample of each slot.
// Slots whose sample has expired without a materialized replacement are
// omitted, so Len can be briefly below Capacity.
func (w *WindowReservoir) Points() []stream.Point {
	out := make([]stream.Point, 0, len(w.slots))
	for i := range w.slots {
		s := &w.slots[i]
		if len(s.chain) == 0 {
			continue
		}
		head := s.chain[0]
		if w.t-head.Index >= w.window {
			continue
		}
		out = append(out, head)
	}
	return out
}

// Sample implements Sampler.
func (w *WindowReservoir) Sample() []stream.Point { return w.Points() }

// Len implements Sampler. It counts in-window slot heads directly rather
// than materializing the Points slice.
func (w *WindowReservoir) Len() int {
	n := 0
	for i := range w.slots {
		s := &w.slots[i]
		if len(s.chain) == 0 {
			continue
		}
		if w.t-s.chain[0].Index >= w.window {
			continue
		}
		n++
	}
	return n
}

// Capacity implements Sampler.
func (w *WindowReservoir) Capacity() int { return w.capacity }

// Processed implements Sampler.
func (w *WindowReservoir) Processed() uint64 { return w.t }

// Version implements VersionedSampler.
func (w *WindowReservoir) Version() uint64 { return w.ver }

// Window returns the window length W.
func (w *WindowReservoir) Window() uint64 { return w.window }

// InclusionProb implements Sampler. Each slot holds a uniform sample of the
// last min(t, W) points, so a point inside the window is present in any
// fixed slot with probability 1/min(t,W); points outside the window have
// probability 0. (Slots are not mutually exclusive, so this is the
// per-slot marginal — the quantity the Horvitz-Thompson estimator needs
// when it sums over slot contents.)
func (w *WindowReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > w.t {
		return 0
	}
	if w.t-r >= w.window {
		return 0
	}
	m := w.t
	if m > w.window {
		m = w.window
	}
	return 1 / float64(m)
}
