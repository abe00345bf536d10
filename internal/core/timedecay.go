package core

import (
	"fmt"
	"math"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// TimeDecayReservoir extends the paper's arrival-indexed bias to wall-clock
// time: the r-th point's inclusion probability at time T is proportional to
// e^{-λ(T - T_r)} where T_r is the point's own timestamp. The paper defines
// f over arrival counts; in deployments with irregular arrival rates one
// usually wants decay in *time* (the paper's λ "expressed in terms of the
// inverse of the number of data points" becomes an inverse time horizon).
//
// The memory-less property makes an exact lazy implementation possible:
// surviving to time T with probability e^{-λ(T-T_r)} is equivalent to
// assigning each admitted point an independent Exponential(λ) lifetime and
// evicting it when its expiry passes. Arrivals therefore cost O(log n)
// (heap maintenance) instead of the Ω(n) per-point redistribution the paper
// ascribes to general bias functions.
//
// Space is bounded exactly as in the paper's variable scheme: points are
// admitted with probability p_in (initially 1); whenever an admission
// overflows the capacity, one uniformly random resident is evicted and
// p_in is scaled by capacity/(capacity+1). Uniform eviction multiplies
// every resident's presence probability by the same factor, so
// proportionality to p_in·e^{-λ(T-T_r)} is preserved (the Theorem 3.3
// argument, applied in time).
type TimeDecayReservoir struct {
	st  timeDecayState
	rng *xrand.Source
	ver uint64

	// Derived from st.Items by rebuild.
	heap  []int // indices into st.Items, min-heap by expiry
	byIdx map[uint64]int
}

// timeDecayState is what a TimeDecayReservoir persists.
type timeDecayState struct {
	Lambda   float64
	Capacity int
	PIn      float64
	Now      float64
	T        uint64
	Items    []timeDecayItemState // live residents, unordered
	RNG      []byte
}

type timeDecayItemState struct {
	P       stream.Point
	TS      float64 // admission timestamp
	Expiry  float64
	heapPos int
}

var _ Sampler = (*TimeDecayReservoir)(nil)

// NewTimeDecayReservoir returns a reservoir decaying with rate λ per unit
// time within `capacity` points. λ must be positive and finite.
func NewTimeDecayReservoir(lambda float64, capacity int, rng *xrand.Source) (*TimeDecayReservoir, error) {
	if !(lambda > 0) || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
		return nil, fmt.Errorf("core: time-decay reservoir needs finite λ > 0, got %v", lambda)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("core: time-decay reservoir needs capacity > 0, got %d", capacity)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: time-decay reservoir needs a random source")
	}
	return &TimeDecayReservoir{
		st:    timeDecayState{Lambda: lambda, Capacity: capacity, PIn: 1},
		rng:   rng,
		byIdx: make(map[uint64]int),
	}, nil
}

// Add implements Sampler, treating arrivals as unit-spaced in time (one
// time unit per point), which reduces exactly to the paper's
// arrival-indexed bias.
func (d *TimeDecayReservoir) Add(p stream.Point) {
	d.AddAt(p, d.st.Now+1)
}

// AddAt admits a point carrying its own timestamp. Timestamps must be
// non-decreasing; a point older than the current clock is rejected with an
// error.
func (d *TimeDecayReservoir) AddAt(p stream.Point, ts float64) error {
	if ts < d.st.Now {
		return fmt.Errorf("core: out-of-order timestamp %v < %v", ts, d.st.Now)
	}
	d.ver++
	d.st.T++
	d.st.Now = ts
	d.expire()
	if d.st.PIn < 1 && !d.rng.Bernoulli(d.st.PIn) {
		return nil
	}
	lifetime := d.rng.ExpFloat64() / d.st.Lambda
	d.st.Items = append(d.st.Items, timeDecayItemState{P: own(p), TS: ts, Expiry: ts + lifetime})
	d.push(len(d.st.Items) - 1)
	if len(d.st.Items) > d.st.Capacity {
		// Evict one uniformly random resident and rescale p_in so all
		// presence probabilities stay proportional to p_in·f.
		d.removeAt(d.rng.Intn(len(d.st.Items)))
		d.st.PIn *= float64(d.st.Capacity) / float64(d.st.Capacity+1)
	}
	return nil
}

// expire removes every resident whose exponential lifetime has ended.
func (d *TimeDecayReservoir) expire() {
	for len(d.heap) > 0 {
		top := d.heap[0]
		if d.st.Items[top].Expiry > d.st.Now {
			return
		}
		d.removeAt(top)
	}
}

// push adds st.Items[i] to the heap and the index map.
func (d *TimeDecayReservoir) push(i int) {
	d.st.Items[i].heapPos = len(d.heap)
	d.heap = append(d.heap, i)
	d.siftUp(len(d.heap) - 1)
	d.byIdx[d.st.Items[i].P.Index] = i
}

// rebuild derives the heap and the index map from st.Items in their
// stored order.
func (d *TimeDecayReservoir) rebuild() {
	d.heap = d.heap[:0]
	d.byIdx = make(map[uint64]int, len(d.st.Items))
	for i := range d.st.Items {
		d.push(i)
	}
}

// removeAt deletes items[i], maintaining the heap and the dense items
// slice.
func (d *TimeDecayReservoir) removeAt(i int) {
	// Remove from the heap by swapping with the last heap slot.
	hp := d.st.Items[i].heapPos
	last := len(d.heap) - 1
	d.swapHeap(hp, last)
	d.heap = d.heap[:last]
	if hp < last {
		d.siftDown(d.siftUp(hp))
	}
	delete(d.byIdx, d.st.Items[i].P.Index)
	// Remove from items by swapping with the last item.
	lastItem := len(d.st.Items) - 1
	if i != lastItem {
		d.st.Items[i] = d.st.Items[lastItem]
		d.heap[d.st.Items[i].heapPos] = i
		d.byIdx[d.st.Items[i].P.Index] = i
	}
	d.st.Items = d.st.Items[:lastItem]
}

func (d *TimeDecayReservoir) swapHeap(a, b int) {
	d.heap[a], d.heap[b] = d.heap[b], d.heap[a]
	d.st.Items[d.heap[a]].heapPos = a
	d.st.Items[d.heap[b]].heapPos = b
}

// siftUp restores the heap upward from position i and returns the final
// position.
func (d *TimeDecayReservoir) siftUp(i int) int {
	for i > 0 {
		parent := (i - 1) / 2
		if d.st.Items[d.heap[parent]].Expiry <= d.st.Items[d.heap[i]].Expiry {
			break
		}
		d.swapHeap(i, parent)
		i = parent
	}
	return i
}

func (d *TimeDecayReservoir) siftDown(i int) {
	n := len(d.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && d.st.Items[d.heap[left]].Expiry < d.st.Items[d.heap[smallest]].Expiry {
			smallest = left
		}
		if right < n && d.st.Items[d.heap[right]].Expiry < d.st.Items[d.heap[smallest]].Expiry {
			smallest = right
		}
		if smallest == i {
			return
		}
		d.swapHeap(i, smallest)
		i = smallest
	}
}

// TimedPoint pairs a resident point with its admission timestamp.
type TimedPoint struct {
	P  stream.Point
	TS float64
}

// Residents returns the reservoir contents together with their timestamps,
// for time-horizon estimation (see query semantics in docs/THEORY.md §7).
func (d *TimeDecayReservoir) Residents() []TimedPoint {
	out := make([]TimedPoint, len(d.st.Items))
	for i := range d.st.Items {
		out[i] = TimedPoint{P: d.st.Items[i].P, TS: d.st.Items[i].TS}
	}
	return out
}

// Points implements Sampler. The slice is rebuilt on each call; use Sample
// for a stable copy.
func (d *TimeDecayReservoir) Points() []stream.Point {
	out := make([]stream.Point, len(d.st.Items))
	for i := range d.st.Items {
		out[i] = d.st.Items[i].P
	}
	return out
}

// Sample implements Sampler.
func (d *TimeDecayReservoir) Sample() []stream.Point { return d.Points() }

// Len implements Sampler.
func (d *TimeDecayReservoir) Len() int { return len(d.st.Items) }

// Capacity implements Sampler.
func (d *TimeDecayReservoir) Capacity() int { return d.st.Capacity }

// Processed implements Sampler.
func (d *TimeDecayReservoir) Processed() uint64 { return d.st.T }

// Version implements VersionedSampler.
func (d *TimeDecayReservoir) Version() uint64 { return d.ver }

// Now returns the reservoir's clock (the largest timestamp seen).
func (d *TimeDecayReservoir) Now() float64 { return d.st.Now }

// Lambda returns the decay rate λ per unit time.
func (d *TimeDecayReservoir) Lambda() float64 { return d.st.Lambda }

// PIn returns the current admission probability.
func (d *TimeDecayReservoir) PIn() float64 { return d.st.PIn }

// InclusionProb implements Sampler for *resident* points: the probability
// that the resident with arrival index r is present is
// p_in·e^{-λ(now - T_r)}. For points no longer resident the per-point
// timestamp is gone and 0 is returned; the Horvitz-Thompson estimators only
// evaluate residents, so estimates remain unbiased.
func (d *TimeDecayReservoir) InclusionProb(r uint64) float64 {
	i, ok := d.byIdx[r]
	if !ok {
		return 0
	}
	p := d.st.PIn * math.Exp(-d.st.Lambda*(d.st.Now-d.st.Items[i].TS))
	if p > 1 {
		return 1
	}
	return p
}
