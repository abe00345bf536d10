package core

import (
	"fmt"
	"math"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// TTBSReservoir implements Targeted-size Time-Biased Sampling (T-TBS) from
// Hentschel, Haas and Tian ("Temporally-Biased Sampling for Online Model
// Management", arXiv 1801.09709): a Bernoulli scheme whose inclusion
// probabilities decay at *exactly* the target exponential rate, in contrast
// to the paper's Algorithms 2.1/3.1 whose closed forms (Theorems 2.2/3.1)
// are approximations.
//
// Arrivals are admitted independently with probability p = n·q where
// q = 1 - e^{-λ} and n is the target sample size. Each admitted item is
// assigned a geometric lifetime G with P[G ≥ k] = (1-q)^k = e^{-λk} —
// after G further arrivals it is evicted. The inclusion probability of the
// r-th arrival at time t is therefore
//
//	p(r,t) = p · P[G ≥ t-r] = p · e^{-λ(t-r)}
//
// with no approximation, so the Horvitz-Thompson estimators in
// internal/query divide by the exact presence probability. The price is
// that the sample size is not bounded: it fluctuates around its steady
// state E|S| = p/q = n (Capacity reports the target n; Len may transiently
// exceed it). Lazy expiry via a min-heap keyed on the death time makes
// arrivals O(log n) worst case and O(1+p·log n) expected.
type TTBSReservoir struct {
	st  ttbsState
	rng *xrand.Source
	ver uint64

	// Derived from st by derive: q and p are pure functions of λ and the
	// target, and the heap indexes st.Items.
	q    float64 // per-arrival death probability 1 - e^{-λ}
	p    float64 // admission probability n·q
	heap []int   // indices into st.Items, min-heap by expiry
}

// ttbsState is what a TTBSReservoir persists.
type ttbsState struct {
	Lambda float64
	Target int
	T      uint64
	// Admitted counts points that passed the Bernoulli(p) filter.
	Admitted uint64
	Items    []ttbsItemState // live residents, unordered
	RNG      []byte
}

type ttbsItemState struct {
	P       stream.Point
	Expiry  uint64 // last arrival index at which the item is still present
	heapPos int
}

var (
	_ Sampler          = (*TTBSReservoir)(nil)
	_ BatchSampler     = (*TTBSReservoir)(nil)
	_ Compactor        = (*TTBSReservoir)(nil)
	_ VersionedSampler = (*TTBSReservoir)(nil)
)

// NewTTBSReservoir returns a T-TBS sampler with decay rate λ per arrival
// and target sample size n. The admission probability n·(1-e^{-λ}) must
// not exceed 1, i.e. n ≤ 1/(1-e^{-λ}) ≈ 1/λ — the same maximum
// requirement as Approximation 2.1.
func NewTTBSReservoir(lambda float64, target int, rng *xrand.Source) (*TTBSReservoir, error) {
	if !(lambda > 0) || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
		return nil, fmt.Errorf("core: T-TBS needs finite λ > 0, got %v", lambda)
	}
	if target <= 0 {
		return nil, fmt.Errorf("core: T-TBS needs target size > 0, got %d", target)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: T-TBS needs a random source")
	}
	s := &TTBSReservoir{st: ttbsState{Lambda: lambda, Target: target}, rng: rng}
	s.derive()
	if p := float64(target) * s.q; p > 1+1e-12 {
		return nil, fmt.Errorf(
			"core: T-TBS target %d exceeds the maximum 1/(1-e^{-λ}) = %.4g; admission probability n·q = %.4g > 1",
			target, 1/s.q, p)
	}
	return s, nil
}

// derive recomputes what the sampler keeps beside its persisted state: q
// and p from λ and the target, and the expiry heap over st.Items in their
// stored order.
func (s *TTBSReservoir) derive() {
	s.q = -math.Expm1(-s.st.Lambda) // 1 - e^{-λ}, stable for small λ
	s.p = math.Min(float64(s.st.Target)*s.q, 1)
	s.heap = s.heap[:0]
	for i := range s.st.Items {
		s.push(i)
	}
}

// Add implements Sampler.
func (s *TTBSReservoir) Add(p stream.Point) {
	s.ver++
	s.st.T++
	s.expire()
	if s.p < 1 && !s.rng.Bernoulli(s.p) {
		return
	}
	s.admit(p)
}

// admit inserts a point that passed the admission filter, drawing its
// geometric lifetime: the item survives exactly G further arrivals where
// P[G ≥ k] = e^{-λk}.
func (s *TTBSReservoir) admit(p stream.Point) {
	s.st.Admitted++
	life := s.rng.Geometric(s.q)
	s.st.Items = append(s.st.Items, ttbsItemState{P: own(p), Expiry: s.st.T + uint64(life)})
	s.push(len(s.st.Items) - 1)
}

// AddBatch implements BatchSampler: distributionally identical to Add-ing
// each point in order, with the per-arrival admission coins replaced by
// geometric skip draws (one random number per admitted point) exactly as in
// BiasedReservoir.AddBatch. Expiry is deterministic given the clock, so it
// is advanced only at admission times and once at the end of the batch.
func (s *TTBSReservoir) AddBatch(pts []stream.Point) {
	n := len(pts)
	s.ver++
	base := s.st.T
	for i := 0; i < n; i++ {
		if s.p < 1 {
			skip := s.rng.Geometric(s.p)
			if skip >= n-i {
				break
			}
			i += skip
		}
		s.st.T = base + uint64(i) + 1
		s.expire()
		s.admit(pts[i])
	}
	s.st.T = base + uint64(n)
	s.expire()
}

// expire removes every resident whose geometric lifetime has ended.
func (s *TTBSReservoir) expire() {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if s.st.Items[top].Expiry >= s.st.T {
			return
		}
		s.removeAt(top)
	}
}

// push adds st.Items[i] to the expiry heap.
func (s *TTBSReservoir) push(i int) {
	s.st.Items[i].heapPos = len(s.heap)
	s.heap = append(s.heap, i)
	s.siftUp(len(s.heap) - 1)
}

// removeAt deletes items[i], maintaining the heap and the dense items
// slice.
func (s *TTBSReservoir) removeAt(i int) {
	hp := s.st.Items[i].heapPos
	last := len(s.heap) - 1
	s.swapHeap(hp, last)
	s.heap = s.heap[:last]
	if hp < last {
		s.siftDown(s.siftUp(hp))
	}
	lastItem := len(s.st.Items) - 1
	if i != lastItem {
		s.st.Items[i] = s.st.Items[lastItem]
		s.heap[s.st.Items[i].heapPos] = i
	}
	s.st.Items = s.st.Items[:lastItem]
}

func (s *TTBSReservoir) swapHeap(a, b int) {
	s.heap[a], s.heap[b] = s.heap[b], s.heap[a]
	s.st.Items[s.heap[a]].heapPos = a
	s.st.Items[s.heap[b]].heapPos = b
}

// heapLess orders heap slots by (expiry, arrival index). Integer expiries
// tie constantly, and the tie-break makes the eviction order a pure
// function of the resident set — which is what lets a restored snapshot
// (whose heap is rebuilt in serialization order) resume identically to the
// uninterrupted run.
func (s *TTBSReservoir) heapLess(a, b int) bool {
	ia, ib := &s.st.Items[s.heap[a]], &s.st.Items[s.heap[b]]
	if ia.Expiry != ib.Expiry {
		return ia.Expiry < ib.Expiry
	}
	return ia.P.Index < ib.P.Index
}

// siftUp restores the heap upward from position i and returns the final
// position.
func (s *TTBSReservoir) siftUp(i int) int {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(i, parent) {
			break
		}
		s.swapHeap(i, parent)
		i = parent
	}
	return i
}

func (s *TTBSReservoir) siftDown(i int) {
	n := len(s.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && s.heapLess(left, smallest) {
			smallest = left
		}
		if right < n && s.heapLess(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		s.swapHeap(i, smallest)
		i = smallest
	}
}

// Points implements Sampler. The slice is rebuilt on each call; use Sample
// for a stable copy.
func (s *TTBSReservoir) Points() []stream.Point {
	out := make([]stream.Point, len(s.st.Items))
	for i := range s.st.Items {
		out[i] = s.st.Items[i].P
	}
	return out
}

// Sample implements Sampler.
func (s *TTBSReservoir) Sample() []stream.Point { return s.Points() }

// Len implements Sampler.
func (s *TTBSReservoir) Len() int { return len(s.st.Items) }

// Capacity implements Sampler. T-TBS has no hard size bound; the reported
// capacity is the target size n the sample size fluctuates around.
func (s *TTBSReservoir) Capacity() int { return s.st.Target }

// Processed implements Sampler.
func (s *TTBSReservoir) Processed() uint64 { return s.st.T }

// Version implements VersionedSampler.
func (s *TTBSReservoir) Version() uint64 { return s.ver }

// Admitted returns the number of points that passed the admission filter.
func (s *TTBSReservoir) Admitted() uint64 { return s.st.Admitted }

// Lambda returns the decay rate λ the sampler realizes.
func (s *TTBSReservoir) Lambda() float64 { return s.st.Lambda }

// PIn returns the admission probability p = n·(1-e^{-λ}).
func (s *TTBSReservoir) PIn() float64 { return s.p }

// Target returns the target sample size n.
func (s *TTBSReservoir) Target() int { return s.st.Target }

// InclusionProb implements Sampler. Unlike Theorems 2.2/3.1 this closed
// form is exact: admission and survival are independent Bernoulli/geometric
// draws, so p(r,t) = p·e^{-λ(t-r)} with no approximation.
func (s *TTBSReservoir) InclusionProb(r uint64) float64 {
	if r == 0 || r > s.st.T {
		return 0
	}
	return s.p * math.Exp(-s.st.Lambda*float64(s.st.T-r))
}

// CompactBelow implements Compactor: residents with p·e^{-λ(t-r)} < floor
// are dropped in place.
func (s *TTBSReservoir) CompactBelow(floor float64) int {
	if !(floor > 0) {
		return 0
	}
	removed := 0
	for i := 0; i < len(s.st.Items); {
		if s.InclusionProb(s.st.Items[i].P.Index) < floor {
			s.removeAt(i)
			removed++
		} else {
			i++
		}
	}
	if removed > 0 {
		s.ver++
	}
	return removed
}
