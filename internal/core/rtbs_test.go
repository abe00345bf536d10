package core

import (
	"math"
	"testing"

	"biasedres/internal/xrand"
)

func TestRTBSValidation(t *testing.T) {
	if _, err := NewRTBSReservoir(0, 10, xrand.New(1)); err == nil {
		t.Error("λ=0 accepted")
	}
	if _, err := NewRTBSReservoir(math.Inf(1), 10, xrand.New(1)); err == nil {
		t.Error("λ=Inf accepted")
	}
	if _, err := NewRTBSReservoir(0.01, 0, xrand.New(1)); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewRTBSReservoir(0.01, 10, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func newRTBS(t *testing.T, lambda float64, capacity int, seed uint64) *RTBSReservoir {
	t.Helper()
	s, err := NewRTBSReservoir(lambda, capacity, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The R-TBS design point: empirical inclusion frequency matches
// C(t)·e^{-λ(t-r)}/W(t) exactly, within a hard item bound — the property
// Aggarwal's approximate scheme cannot meet.
func TestRTBSExactDecayDistribution(t *testing.T) {
	const (
		lambda   = 0.02
		capacity = 30 // well below 1/λ: the memory-constrained regime
		total    = 600
		trials   = 6000
	)
	counts := make([]int, total+1)
	rng := xrand.New(29)
	for trial := 0; trial < trials; trial++ {
		s, err := NewRTBSReservoir(lambda, capacity, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		feed(s, total)
		for _, p := range s.Points() {
			counts[p.Index]++
		}
	}
	w := math.Expm1(-lambda*total) / math.Expm1(-lambda)
	c := math.Min(capacity, w)
	for _, r := range []uint64{350, 450, 550, 590, 600} {
		got := float64(counts[r]) / trials
		want := c * math.Exp(-lambda*float64(total-r)) / w
		sigma := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 5*sigma {
			t.Errorf("p(%d,%d): empirical %.4f, exact target %.4f (5σ = %.4f)", r, total, got, want, 5*sigma)
		}
	}
}

// During warm-up (W(t) < n) every point is in the latent sample with
// probability e^{-λ(t-r)} exactly, and the delivered size has mean C(t).
func TestRTBSWarmupDistribution(t *testing.T) {
	const (
		lambda   = 0.05
		capacity = 1000 // never binds at total=60
		total    = 60
		trials   = 8000
	)
	counts := make([]int, total+1)
	var size float64
	rng := xrand.New(31)
	for trial := 0; trial < trials; trial++ {
		s, _ := NewRTBSReservoir(lambda, capacity, rng.Split())
		feed(s, total)
		size += float64(s.Len())
		for _, p := range s.Points() {
			counts[p.Index]++
		}
	}
	for _, r := range []uint64{10, 30, 50, 60} {
		got := float64(counts[r]) / trials
		want := math.Exp(-lambda * float64(total-r))
		sigma := math.Sqrt(want*(1-want)/trials) + 1e-9
		if math.Abs(got-want) > 5*sigma {
			t.Errorf("warm-up p(%d,%d): empirical %.4f, want %.4f", r, total, got, want)
		}
	}
	size /= trials
	c := math.Expm1(-lambda*total) / math.Expm1(-lambda)
	if math.Abs(size-c) > 5*math.Sqrt(c/trials) {
		t.Errorf("mean delivered size %.3f, want C(t) = %.3f", size, c)
	}
}

// The hard bound: the latent sample never holds more than n items, and its
// structural invariants hold after every arrival.
func TestRTBSBoundedAndInvariants(t *testing.T) {
	const (
		lambda   = 0.03
		capacity = 25
		total    = 3000
	)
	s := newRTBS(t, lambda, capacity, 41)
	for i := 1; i <= total; i++ {
		s.Add(batchPoints(uint64(i), 1)[0])
		if len(s.st.Items) > capacity {
			t.Fatalf("arrival %d: %d items exceed capacity %d", i, len(s.st.Items), capacity)
		}
		wantLen := s.st.NFull
		if s.st.HasPartial {
			wantLen++
			if !(s.st.Frac > 0 && s.st.Frac < 1) {
				t.Fatalf("arrival %d: partial weight %v out of (0,1)", i, s.st.Frac)
			}
		}
		if len(s.st.Items) != wantLen {
			t.Fatalf("arrival %d: %d items but nFull=%d hasPartial=%v", i, len(s.st.Items), s.st.NFull, s.st.HasPartial)
		}
		// Latent total weight tracks C(t) = min(n, W(t)).
		c := s.latentAt(s.st.T)
		got := float64(s.st.NFull) + s.st.Frac
		if math.Abs(got-c) > 1e-6 {
			t.Fatalf("arrival %d: latent weight %.8f, want C(t)=%.8f", i, got, c)
		}
	}
	if s.Len() < s.st.NFull || s.Len() > s.st.NFull+1 {
		t.Fatalf("delivered %d outside [%d,%d]", s.Len(), s.st.NFull, s.st.NFull+1)
	}
}

// Batch and single-point ingest are distributionally identical; batches of
// b points advance the decay clock by exactly b unit steps.
func TestRTBSAddBatchDistribution(t *testing.T) {
	const (
		lambda   = 0.01
		capacity = 40
		total    = 4000
		batch    = 128
		trials   = 40
	)
	run := func(seed uint64, batched bool) (size float64, meanIdx float64) {
		s := newRTBS(t, lambda, capacity, seed)
		var next uint64 = 1
		for next <= total {
			n := uint64(batch)
			if next+n > total+1 {
				n = total + 1 - next
			}
			pts := batchPoints(next, n)
			next += n
			if batched {
				s.AddBatch(pts)
			} else {
				for _, p := range pts {
					s.Add(p)
				}
			}
		}
		var sum float64
		for _, p := range s.Points() {
			sum += float64(p.Index)
		}
		if s.Len() == 0 {
			t.Fatal("empty reservoir after feed")
		}
		return float64(s.Len()), sum / float64(s.Len())
	}
	var szSingle, szBatch, ageSingle, ageBatch float64
	for seed := uint64(1); seed <= trials; seed++ {
		n, m := run(seed, false)
		szSingle += n
		ageSingle += m
		n, m = run(seed+1000, true)
		szBatch += n
		ageBatch += m
	}
	szSingle /= trials
	szBatch /= trials
	ageSingle /= trials
	ageBatch /= trials
	if math.Abs(szSingle-szBatch) > 1.5 {
		t.Errorf("mean delivered size diverged: single %.2f vs batch %.2f", szSingle, szBatch)
	}
	if math.Abs(ageSingle-ageBatch) > 0.02*total {
		t.Errorf("mean resident index diverged: single %.1f vs batch %.1f", ageSingle, ageBatch)
	}
}

func TestRTBSInclusionProbShape(t *testing.T) {
	s := newRTBS(t, 0.02, 30, 43)
	feed(s, 500)
	if got := s.InclusionProb(0); got != 0 {
		t.Errorf("InclusionProb(0) = %v, want 0", got)
	}
	if got := s.InclusionProb(501); got != 0 {
		t.Errorf("InclusionProb(t+1) = %v, want 0", got)
	}
	prev := -1.0
	for _, r := range []uint64{100, 200, 300, 400, 500} {
		p := s.InclusionProb(r)
		if p <= prev {
			t.Errorf("inclusion not increasing in recency at r=%d: %v <= %v", r, p, prev)
		}
		if p > 1 {
			t.Errorf("InclusionProb(%d) = %v > 1", r, p)
		}
		prev = p
	}
	// Newest arrival's inclusion is C/W = PIn.
	if got, want := s.InclusionProb(500), s.PIn(); math.Abs(got-want) > 1e-12 {
		t.Errorf("InclusionProb(t) = %v, PIn() = %v", got, want)
	}
}

func TestRTBSCompactBelow(t *testing.T) {
	s := newRTBS(t, 0.02, 30, 47)
	feed(s, 500)
	if got := s.CompactBelow(0); got != 0 {
		t.Fatalf("CompactBelow(0) removed %d", got)
	}
	floor := 0.1
	removed := s.CompactBelow(floor)
	for i := 0; i < s.st.NFull; i++ {
		if s.InclusionProb(s.st.Items[i].Index) < floor {
			t.Fatalf("full item %d kept below floor", s.st.Items[i].Index)
		}
	}
	if s.st.HasPartial && s.InclusionProb(s.st.Items[s.st.NFull].Index) < floor {
		t.Fatal("partial item kept below floor")
	}
	if removed == 0 {
		t.Fatal("nothing compacted at floor 0.1 with λ=0.02 — residents should span past the floor horizon")
	}
	// Structure stays coherent for further ingest.
	feed(s, 200)
	if s.Processed() != 700 {
		t.Fatalf("processed %d, want 700", s.Processed())
	}
	if len(s.st.Items) > s.Capacity() {
		t.Fatalf("%d items exceed capacity after compaction+ingest", len(s.st.Items))
	}
}
