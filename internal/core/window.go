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
	st  windowState
	rng *xrand.Source
	ver uint64
}

// windowState is what a WindowReservoir persists.
type windowState struct {
	Window   uint64
	Capacity int
	T        uint64
	Slots    []windowChainState
	RNG      []byte
}

// windowChainState is one slot's chain: the current sample followed by its
// already-materialized future replacements, and the arrival index at which
// the next link will be captured.
type windowChainState struct {
	Chain []stream.Point // Chain[0] is the slot's current sample
	Next  uint64         // arrival index of the next link to capture (0 = none pending)
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
		st:  windowState{Window: window, Capacity: capacity, Slots: make([]windowChainState, capacity)},
		rng: rng,
	}, nil
}

// Add implements Sampler.
func (w *WindowReservoir) Add(p stream.Point) {
	w.ver++
	w.st.T++
	m := w.st.T
	if m > w.st.Window {
		m = w.st.Window
	}
	// Slots that capture p share one owned copy of its values.
	owned := false
	for i := range w.st.Slots {
		s := &w.st.Slots[i]
		// Expire the head while it has fallen out of the window and a
		// replacement is available.
		for len(s.Chain) > 1 && w.st.T-s.Chain[0].Index >= w.st.Window {
			s.Chain = s.Chain[1:]
		}
		// Capture a pending chain link.
		if s.Next != 0 && s.Next == w.st.T {
			if !owned {
				p, owned = own(p), true
			}
			s.Chain = append(s.Chain, p)
			s.Next = w.scheduleNext(p.Index)
		}
		// Fresh sample with probability 1/min(t, W): the new point
		// replaces the whole chain.
		if w.rng.Float64()*float64(m) < 1 {
			if !owned {
				p, owned = own(p), true
			}
			s.Chain = append(s.Chain[:0], p)
			s.Next = w.scheduleNext(p.Index)
		}
	}
}

// scheduleNext draws the replacement index uniformly from (r, r+W].
func (w *WindowReservoir) scheduleNext(r uint64) uint64 {
	return r + 1 + w.rng.Uint64n(w.st.Window)
}

// Points implements Sampler: the current (in-window) sample of each slot.
// Slots whose sample has expired without a materialized replacement are
// omitted, so Len can be briefly below Capacity.
func (w *WindowReservoir) Points() []stream.Point {
	out := make([]stream.Point, 0, len(w.st.Slots))
	for i := range w.st.Slots {
		s := &w.st.Slots[i]
		if len(s.Chain) == 0 {
			continue
		}
		head := s.Chain[0]
		if w.st.T-head.Index >= w.st.Window {
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
	for i := range w.st.Slots {
		s := &w.st.Slots[i]
		if len(s.Chain) == 0 {
			continue
		}
		if w.st.T-s.Chain[0].Index >= w.st.Window {
			continue
		}
		n++
	}
	return n
}

// Capacity implements Sampler.
func (w *WindowReservoir) Capacity() int { return w.st.Capacity }

// Processed implements Sampler.
func (w *WindowReservoir) Processed() uint64 { return w.st.T }

// Version implements VersionedSampler.
func (w *WindowReservoir) Version() uint64 { return w.ver }

// Window returns the window length W.
func (w *WindowReservoir) Window() uint64 { return w.st.Window }

// InclusionProb implements Sampler. Each slot holds a uniform sample of the
// last min(t, W) points, so a point inside the window is present in any
// fixed slot with probability 1/min(t,W); points outside the window have
// probability 0. (Slots are not mutually exclusive, so this is the
// per-slot marginal — the quantity the Horvitz-Thompson estimator needs
// when it sums over slot contents.)
func (w *WindowReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > w.st.T {
		return 0
	}
	if w.st.T-r >= w.st.Window {
		return 0
	}
	m := w.st.T
	if m > w.st.Window {
		m = w.st.Window
	}
	return 1 / float64(m)
}
