package core

import (
	"fmt"
	"math"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// WeightedReservoir implements Efraimidis & Spirakis' algorithm A-Res:
// a one-pass reservoir of n points in which each stream point's chance of
// inclusion is governed by its own weight (Point.Weight) rather than by its
// age. Every point receives the key u^{1/w} for u uniform in (0,1); the
// reservoir keeps the n largest keys in a min-heap.
//
// It complements the paper's temporal bias with *content* bias: a point
// twice as heavy behaves like two unit-weight copies. Combined with an
// application-maintained decaying weight it can approximate arbitrary bias
// functions, but unlike the exponential samplers it has no closed-form
// inclusion probability, so it deliberately does NOT implement Sampler and
// cannot back the Horvitz-Thompson estimators. Use it for weighted
// sampling tasks (e.g. size-proportional record sampling), not for query
// estimation.
type WeightedReservoir struct {
	capacity int
	items    []weightedItem // min-heap on key
	t        uint64
	rng      *xrand.Source
}

type weightedItem struct {
	p   stream.Point
	key float64
}

// NewWeightedReservoir returns an A-Res reservoir of the given capacity.
func NewWeightedReservoir(capacity int, rng *xrand.Source) (*WeightedReservoir, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: weighted reservoir needs capacity > 0, got %d", capacity)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: weighted reservoir needs a random source")
	}
	return &WeightedReservoir{capacity: capacity, rng: rng}, nil
}

// Add offers a point to the reservoir. Points with non-positive or
// non-finite weights are counted but can never enter the sample.
func (w *WeightedReservoir) Add(p stream.Point) {
	w.t++
	if !(p.Weight > 0) || math.IsInf(p.Weight, 0) || math.IsNaN(p.Weight) {
		return
	}
	var u float64
	for u == 0 {
		u = w.rng.Float64()
	}
	key := math.Pow(u, 1/p.Weight)
	if len(w.items) < w.capacity {
		w.items = append(w.items, weightedItem{p: own(p), key: key})
		w.up(len(w.items) - 1)
		return
	}
	if key <= w.items[0].key {
		return
	}
	w.items[0] = weightedItem{p: own(p), key: key}
	w.down(0)
}

func (w *WeightedReservoir) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if w.items[parent].key <= w.items[i].key {
			return
		}
		w.items[parent], w.items[i] = w.items[i], w.items[parent]
		i = parent
	}
}

func (w *WeightedReservoir) down(i int) {
	n := len(w.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && w.items[l].key < w.items[small].key {
			small = l
		}
		if r < n && w.items[r].key < w.items[small].key {
			small = r
		}
		if small == i {
			return
		}
		w.items[small], w.items[i] = w.items[i], w.items[small]
		i = small
	}
}

// Points returns the current sample (order is heap order, not meaningful).
func (w *WeightedReservoir) Points() []stream.Point {
	out := make([]stream.Point, len(w.items))
	for i := range w.items {
		out[i] = w.items[i].p
	}
	return out
}

// Sample returns a copy of the current sample.
func (w *WeightedReservoir) Sample() []stream.Point { return w.Points() }

// Len returns the current sample size.
func (w *WeightedReservoir) Len() int { return len(w.items) }

// Capacity returns the maximum sample size.
func (w *WeightedReservoir) Capacity() int { return w.capacity }

// Processed returns the number of points offered.
func (w *WeightedReservoir) Processed() uint64 { return w.t }
