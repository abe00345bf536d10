package core

import (
	"math"
	"testing"
	"time"

	"biasedres/internal/xrand"
)

func TestSkipReservoirValidation(t *testing.T) {
	if _, err := NewSkipReservoir(0, xrand.New(1)); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewSkipReservoir(10, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestSkipReservoirBasics(t *testing.T) {
	s, err := NewSkipReservoir(10, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	feed(s, 5)
	if s.Len() != 5 {
		t.Fatalf("len = %d", s.Len())
	}
	feed(s, 5000)
	if s.Len() != 10 || s.Capacity() != 10 || s.Processed() != 5005 {
		t.Fatalf("len/cap/t = %d/%d/%d", s.Len(), s.Capacity(), s.Processed())
	}
	if got := s.InclusionProb(100); math.Abs(got-10.0/5005) > 1e-12 {
		t.Fatalf("p = %v", got)
	}
	if s.InclusionProb(0) != 0 || s.InclusionProb(6000) != 0 {
		t.Fatal("out-of-range r")
	}
	cp := s.Sample()
	cp[0].Index = 1
	if s.Points()[0].Index == 1 && cp[0].Index == s.Points()[0].Index && &cp[0] == &s.Points()[0] {
		t.Fatal("Sample aliases reservoir")
	}
}

// Algorithm X must realize exactly the Algorithm R distribution
// (Property 2.1): uniform inclusion probability n/t for every arrival.
func TestSkipReservoirUniformity(t *testing.T) {
	const (
		capacity = 20
		total    = 200
		trials   = 3000
	)
	counts := make([]int, total+1)
	rng := xrand.New(55)
	for trial := 0; trial < trials; trial++ {
		s, _ := NewSkipReservoir(capacity, rng.Split())
		feed(s, total)
		for _, p := range s.Points() {
			counts[p.Index]++
		}
	}
	want := float64(capacity) / float64(total)
	sigma := math.Sqrt(want * (1 - want) / trials)
	for _, r := range []int{1, 50, 100, 150, 200} {
		got := float64(counts[r]) / trials
		if math.Abs(got-want) > 5*sigma {
			t.Errorf("p(%d,%d) empirical %v, want %v", r, total, got, want)
		}
	}
}

// Over a long stream, Algorithm X must touch the RNG far less often than
// once per arrival (that is its whole point). We proxy this by checking
// that two generators seeded identically but fed different-length tails
// still agree: not directly observable, so instead check skip counts grow.
func TestSkipReservoirSkipsGrow(t *testing.T) {
	s, _ := NewSkipReservoir(10, xrand.New(3))
	feed(s, 10)
	firstSkip := s.st.Skip
	feed(s, 100000)
	if s.st.Skip <= firstSkip && s.st.Skip < 100 {
		// Late-stream skips are ~t/n ≈ 10000 in expectation; a tiny
		// value here would indicate the schedule is not advancing.
		t.Fatalf("late-stream skip = %d, early %d; expected growth", s.st.Skip, firstSkip)
	}
}

// Algorithm R and Algorithm X agree in distribution: compare mean resident
// age over trials.
func TestSkipMatchesAlgorithmR(t *testing.T) {
	const capacity, total, trials = 50, 2000, 300
	rng := xrand.New(77)
	meanAge := func(mk func(src *xrand.Source) Sampler) float64 {
		var sum float64
		var n int
		for i := 0; i < trials; i++ {
			s := mk(rng.Split())
			feed(s, total)
			for _, p := range s.Points() {
				sum += float64(total) - float64(p.Index)
				n++
			}
		}
		return sum / float64(n)
	}
	ageR := meanAge(func(src *xrand.Source) Sampler {
		u, _ := NewUnbiasedReservoir(capacity, src)
		return u
	})
	ageX := meanAge(func(src *xrand.Source) Sampler {
		u, _ := NewSkipReservoir(capacity, src)
		return u
	})
	// Uniform over 1..2000: mean age ≈ 1000.
	if math.Abs(ageR-ageX) > 0.08*ageR {
		t.Fatalf("Algorithm R mean age %v vs Algorithm X %v", ageR, ageX)
	}
}

// TestSkipDrawZeroUniform is the regression test for the unbounded
// inversion loop: xrand.Float64 legally returns exactly 0, and drawSkip
// used to compare quot > u against that raw draw — with u = 0 the loop
// only exited after quot underflowed through the entire denormal range,
// ~709·t/n iterations (billions deep into a stream), stalling the ingest
// worker that hit it. xrand.Source is a concrete generator with no seam
// to stub, so the test drives skipFor with the exact uniform drawSkip
// now derives from a zero-returning Float64 (1 - 0 = 1), at a stream
// position where the old loop would grind for days.
func TestSkipDrawZeroUniform(t *testing.T) {
	s, err := NewSkipReservoir(10, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s.st.T = 1 << 50
	done := make(chan uint64, 1)
	go func() { done <- s.skipFor(1 - 0) }()
	select {
	case skip := <-done:
		// u = 1 is the top of the inverted CDF: P(S >= 1) < 1 always
		// (the next arrival has probability n/t of replacing), so the
		// zero-draw case must schedule no skip at all, not ~709·t/n.
		if skip != 0 {
			t.Fatalf("skip = %d for the zero-uniform draw, want 0", skip)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("skip draw did not return: the inversion loop is unbounded again")
	}
}

// TestSkipForClampsNonPositive covers the defensive half of the fix:
// a caller handing skipFor a non-positive uniform directly is clamped to
// the 2^-53 floor and terminated by the quot > 0 guard — the draw
// returns the distribution's extreme tail instead of spinning.
func TestSkipForClampsNonPositive(t *testing.T) {
	s, err := NewSkipReservoir(1024, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s.st.T = 1 << 20
	done := make(chan uint64, 1)
	go func() { done <- s.skipFor(0) }()
	select {
	case skip := <-done:
		// The 2^-53 tail sits near 53·ln2·t/n ≈ 36.7·t/n; anything in
		// that order is fine, the point is it returned at all.
		if skip == 0 {
			t.Fatal("clamped zero uniform produced skip 0; clamp not applied")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("skipFor(0) did not return: the quot > 0 guard is gone")
	}
}
