package core

import (
	"math"
	"testing"

	"biasedres/internal/xrand"
)

func TestTTBSValidation(t *testing.T) {
	if _, err := NewTTBSReservoir(0, 10, xrand.New(1)); err == nil {
		t.Error("λ=0 accepted")
	}
	if _, err := NewTTBSReservoir(math.NaN(), 10, xrand.New(1)); err == nil {
		t.Error("λ=NaN accepted")
	}
	if _, err := NewTTBSReservoir(0.01, 0, xrand.New(1)); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := NewTTBSReservoir(0.01, 10, nil); err == nil {
		t.Error("nil rng accepted")
	}
	// n·(1-e^{-λ}) > 1 is over the maximum requirement.
	if _, err := NewTTBSReservoir(0.5, 10, xrand.New(1)); err == nil {
		t.Error("target beyond 1/(1-e^{-λ}) accepted")
	}
	if _, err := NewTTBSReservoir(0.01, 50, xrand.New(1)); err != nil {
		t.Errorf("valid parameters rejected: %v", err)
	}
}

// The T-TBS design point: the empirical inclusion frequency matches the
// target p·e^{-λ(t-r)} EXACTLY — no approximation slack term, unlike the
// Theorem 2.2/3.1 tests for Aggarwal's scheme.
func TestTTBSExactDecayDistribution(t *testing.T) {
	const (
		lambda = 0.01
		target = 50 // p = 50·(1-e^{-0.01}) ≈ 0.4975
		total  = 800
		trials = 6000
	)
	counts := make([]int, total+1)
	rng := xrand.New(17)
	for trial := 0; trial < trials; trial++ {
		s, err := NewTTBSReservoir(lambda, target, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		feed(s, total)
		for _, p := range s.Points() {
			counts[p.Index]++
		}
	}
	p := float64(target) * -math.Expm1(-lambda)
	for _, r := range []uint64{400, 600, 700, 780, 800} {
		got := float64(counts[r]) / trials
		want := p * math.Exp(-lambda*float64(total-r))
		sigma := math.Sqrt(want * (1 - want) / trials)
		if math.Abs(got-want) > 5*sigma {
			t.Errorf("p(%d,%d): empirical %.4f, exact target %.4f (5σ = %.4f)", r, total, got, want, 5*sigma)
		}
		if ip := newTTBS(t, lambda, target, 1).InclusionProb(0); ip != 0 {
			t.Fatalf("InclusionProb(0) = %v, want 0", ip)
		}
	}
}

func newTTBS(t *testing.T, lambda float64, target int, seed uint64) *TTBSReservoir {
	t.Helper()
	s, err := NewTTBSReservoir(lambda, target, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// E|S| converges to the target size n = p/q.
func TestTTBSSteadyStateSize(t *testing.T) {
	const (
		lambda = 0.02
		target = 40
		total  = 2000
		trials = 300
	)
	var size float64
	rng := xrand.New(23)
	for trial := 0; trial < trials; trial++ {
		s, _ := NewTTBSReservoir(lambda, target, rng.Split())
		feed(s, total)
		size += float64(s.Len())
	}
	size /= trials
	// Var|S| ≤ E|S| (sum of independent Bernoullis), so σ of the mean is
	// under √(target/trials) ≈ 0.37.
	if math.Abs(size-target) > 5*math.Sqrt(float64(target)/trials) {
		t.Errorf("steady-state mean size %.2f, want ≈ %d", size, target)
	}
}

// Batch and single-point ingest must be distributionally identical: same
// expected admissions, same resident-recency profile.
func TestTTBSAddBatchDistribution(t *testing.T) {
	const (
		lambda = 0.002
		target = 200 // p ≈ 0.4
		total  = 20000
		batch  = 256
		trials = 30
	)
	run := func(seed uint64, batched bool) (admitted uint64, size int, meanIdx float64) {
		s, err := NewTTBSReservoir(lambda, target, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
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
		return s.Admitted(), s.Len(), sum / float64(s.Len())
	}

	var admSingle, admBatch, ageSingle, ageBatch, szSingle, szBatch float64
	for seed := uint64(1); seed <= trials; seed++ {
		a, n, m := run(seed, false)
		admSingle += float64(a)
		szSingle += float64(n)
		ageSingle += m
		a, n, m = run(seed+1000, true)
		admBatch += float64(a)
		szBatch += float64(n)
		ageBatch += m
	}
	admSingle /= trials
	admBatch /= trials
	ageSingle /= trials
	ageBatch /= trials
	szSingle /= trials
	szBatch /= trials

	p := float64(target) * -math.Expm1(-lambda)
	want := p * total
	sigma := math.Sqrt(total * p * (1 - p) / trials)
	for name, got := range map[string]float64{"single": admSingle, "batch": admBatch} {
		if math.Abs(got-want) > 4*sigma {
			t.Errorf("%s path admitted %.1f on average, want %.1f ± %.1f", name, got, want, 4*sigma)
		}
	}
	if math.Abs(szSingle-szBatch) > 0.1*float64(target) {
		t.Errorf("mean size diverged: single %.1f vs batch %.1f", szSingle, szBatch)
	}
	if math.Abs(ageSingle-ageBatch) > 0.02*total {
		t.Errorf("mean resident index diverged: single %.1f vs batch %.1f", ageSingle, ageBatch)
	}
}

// Every resident must still be within its geometric lifetime, and expiry
// must actually evict: after a long quiet tail of arrivals the early
// prefix is gone with overwhelming probability.
func TestTTBSExpiry(t *testing.T) {
	s := newTTBS(t, 0.05, 20, 3)
	feed(s, 5000)
	for _, it := range s.st.Items {
		if it.Expiry < s.st.T {
			t.Fatalf("resident %d expired at %d but clock is %d", it.P.Index, it.Expiry, s.st.T)
		}
	}
	// P[survive 2000 arrivals] = e^{-100}; none of the first 3000 points
	// should remain.
	for _, p := range s.Points() {
		if p.Index <= 3000 {
			t.Fatalf("point %d survived %d arrivals at λ=0.05", p.Index, s.st.T-p.Index)
		}
	}
}

func TestTTBSCompactBelow(t *testing.T) {
	s := newTTBS(t, 0.01, 50, 5)
	feed(s, 400)
	if got := s.CompactBelow(0); got != 0 {
		t.Fatalf("CompactBelow(0) removed %d", got)
	}
	floor := 0.2
	before := s.Len()
	removed := s.CompactBelow(floor)
	for _, p := range s.Points() {
		if s.InclusionProb(p.Index) < floor {
			t.Fatalf("point %d kept with inclusion %.4f < floor", p.Index, s.InclusionProb(p.Index))
		}
	}
	if s.Len()+removed != before {
		t.Fatalf("removed %d but size went %d → %d", removed, before, s.Len())
	}
	// Heap must stay consistent: further ingest works.
	feed(s, 100)
	if s.Processed() != 500 {
		t.Fatalf("processed %d, want 500", s.Processed())
	}
}
