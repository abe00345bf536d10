package core

import (
	"math"
	"testing"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

func TestVariableValidation(t *testing.T) {
	if _, err := NewVariableReservoir(0.001, 0, xrand.New(1)); err == nil {
		t.Error("nmax 0 accepted")
	}
	if _, err := NewVariableReservoir(0, 100, xrand.New(1)); err == nil {
		t.Error("λ=0 accepted")
	}
	if _, err := NewVariableReservoir(0.001, 2000, xrand.New(1)); err == nil {
		t.Error("nmax beyond 1/λ accepted")
	}
	if _, err := NewVariableReservoir(0.001, 100, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewVariableReservoir(0.001, 100, xrand.New(1), WithReductionFactor(1.5)); err == nil {
		t.Error("reduction factor > 1 accepted")
	}
	if _, err := NewVariableReservoir(0.001, 100, xrand.New(1), WithReductionFactor(0)); err == nil {
		t.Error("reduction factor 0 accepted")
	}
}

func TestVariableNeverExceedsBudget(t *testing.T) {
	v, err := NewVariableReservoir(0.0001, 500, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50000; i++ {
		v.Add(stream.Point{Index: uint64(i), Weight: 1})
		if v.Len() > v.Capacity() {
			t.Fatalf("budget exceeded at point %d: %d > %d", i, v.Len(), v.Capacity())
		}
	}
}

// Regression test: Add used to append before checking the space limit, so
// the backing array transiently held nmax+1 points and reallocated to ~2x
// the stated budget. The slot budget is a hard bound: at every instant the
// slice length must stay within nmax AND its capacity must stay exactly
// nmax (no hidden reallocation). Property-tested over random (λ, nmax).
func TestVariableBudgetCapInvariant(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 40; trial++ {
		nmax := 1 + rng.Intn(400)
		// λ uniform in (0, 1/nmax] keeps nmax·λ <= 1 valid.
		lambda := (rng.Float64() + 1e-9) / float64(nmax)
		v, err := NewVariableReservoir(lambda, nmax, rng.Split())
		if err != nil {
			t.Fatalf("trial %d: NewVariableReservoir(%v, %d): %v", trial, lambda, nmax, err)
		}
		steps := 20*nmax + 1000
		for i := 1; i <= steps; i++ {
			v.Add(stream.Point{Index: uint64(i), Weight: 1})
			if v.Len() > nmax {
				t.Fatalf("trial %d (λ=%v nmax=%d): len %d > budget at point %d", trial, lambda, nmax, v.Len(), i)
			}
			if c := cap(v.st.Pts); c != nmax {
				t.Fatalf("trial %d (λ=%v nmax=%d): cap %d != nmax at point %d (reallocated past budget)", trial, lambda, nmax, c, i)
			}
		}
	}
}

// The cap invariant must survive a snapshot/restore round trip: gob hands
// back a slice with cap == len, which the unmarshal re-homes into an
// nmax-capacity array.
func TestVariableRestoreKeepsCapInvariant(t *testing.T) {
	const nmax = 64
	v, _ := NewVariableReservoir(1e-3, nmax, xrand.New(8))
	feed(v, 5000)
	blob, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := NewVariableReservoir(1e-3, nmax, xrand.New(9))
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if c := cap(restored.st.Pts); c != nmax {
		t.Fatalf("restored cap = %d, want %d", c, nmax)
	}
	if restored.Admitted() != v.Admitted() {
		t.Fatalf("restored admitted = %d, want %d", restored.Admitted(), v.Admitted())
	}
	for i := 0; i < 10*nmax; i++ {
		restored.Add(stream.Point{Index: restored.Processed() + 1, Weight: 1})
		if c := cap(restored.st.Pts); c != nmax {
			t.Fatalf("cap drifted to %d after post-restore adds", c)
		}
	}
}

func TestVariableAdmittedCounts(t *testing.T) {
	v, _ := NewVariableReservoir(1e-3, 100, xrand.New(10)) // target p_in = 0.1
	feed(v, 50)
	// p_in is still 1 early on: every processed point is admitted.
	if v.Admitted() != 50 {
		t.Fatalf("admitted = %d, want 50 while p_in = 1", v.Admitted())
	}
	feed(v, 100000)
	if v.Admitted() >= v.Processed() {
		t.Fatalf("admitted %d should fall below processed %d once p_in < 1", v.Admitted(), v.Processed())
	}
}

func TestVariablePInDecaysToTarget(t *testing.T) {
	const lambda, nmax = 1e-4, 100 // target p_in = 0.01
	v, _ := NewVariableReservoir(lambda, nmax, xrand.New(2))
	if v.PIn() != 1 {
		t.Fatalf("initial p_in = %v, want 1", v.PIn())
	}
	if math.Abs(v.TargetPIn()-0.01) > 1e-12 {
		t.Fatalf("target p_in = %v", v.TargetPIn())
	}
	for i := 1; i <= 2_000_000 && v.PIn() > v.TargetPIn(); i++ {
		v.Add(stream.Point{Index: uint64(i), Weight: 1})
	}
	if v.PIn() > v.TargetPIn()+1e-12 {
		t.Fatalf("p_in stuck at %v, target %v after 2M points (%d phases)", v.PIn(), v.TargetPIn(), v.Phases())
	}
	if v.Phases() == 0 {
		t.Fatal("no reduction phases ran")
	}
}

// The headline claim of Figure 1: the variable scheme fills the reservoir
// within roughly n_max points, while the fixed scheme is still far from
// full after 10x that.
func TestVariableFillsFastFixedFillsSlow(t *testing.T) {
	const lambda, nmax = 1e-4, 200 // fixed p_in = 0.02
	vr, _ := NewVariableReservoir(lambda, nmax, xrand.New(3))
	fx, _ := NewConstrainedReservoir(lambda, nmax, xrand.New(4))
	for i := 1; i <= 2*nmax; i++ {
		p := stream.Point{Index: uint64(i), Weight: 1}
		vr.Add(p)
		fx.Add(p)
	}
	if got := Fill(vr); got < 0.95 {
		t.Errorf("variable fill after %d points = %v, want >= 0.95", 2*nmax, got)
	}
	if got := Fill(fx); got > 0.3 {
		t.Errorf("fixed fill after %d points = %v, expected far from full", 2*nmax, got)
	}
	// And the variable reservoir stays essentially full.
	for i := 2*nmax + 1; i <= 30*nmax; i++ {
		p := stream.Point{Index: uint64(i), Weight: 1}
		vr.Add(p)
		if vr.Len() < nmax-2 {
			t.Fatalf("variable reservoir dipped to %d at point %d", vr.Len(), i)
		}
	}
}

// Theorem 3.3: after p_in has converged, the age distribution of the
// variable reservoir must match that of a plain Algorithm 3.1 reservoir
// with the same (λ, n). We compare mean ages across many trials.
func TestTheorem33DistributionEquivalence(t *testing.T) {
	const (
		lambda = 0.002
		nmax   = 100 // target p_in = 0.2
		total  = 4000
		trials = 300
	)
	rng := xrand.New(17)
	meanAge := func(mk func(seed *xrand.Source) Sampler) float64 {
		var sum float64
		var n int
		for trial := 0; trial < trials; trial++ {
			s := mk(rng.Split())
			feed(s, total)
			for _, p := range s.Points() {
				sum += float64(total - p.Index)
				n++
			}
		}
		return sum / float64(n)
	}
	varAge := meanAge(func(seed *xrand.Source) Sampler {
		v, _ := NewVariableReservoir(lambda, nmax, seed)
		return v
	})
	fixAge := meanAge(func(seed *xrand.Source) Sampler {
		c, _ := NewConstrainedReservoir(lambda, nmax, seed)
		return c
	})
	// Both should be near the truncated-exponential mean; equivalence is
	// the claim, so compare them to each other.
	if math.Abs(varAge-fixAge) > 0.1*fixAge {
		t.Errorf("mean reservoir age: variable %v vs fixed %v (>10%% apart)", varAge, fixAge)
	}
}

func TestVariableInclusionProbUsesCurrentPIn(t *testing.T) {
	v, _ := NewVariableReservoir(1e-3, 100, xrand.New(5)) // target 0.1
	feed(v, 50)
	// Early on p_in is still 1: the newest point is certainly present.
	if got := v.InclusionProb(50); got != 1 {
		t.Fatalf("p(t,t) early = %v, want 1 (p_in still 1)", got)
	}
	feed(v, 100000)
	if math.Abs(v.PIn()-0.1) > 1e-9 {
		t.Fatalf("p_in = %v after long stream", v.PIn())
	}
	t1 := v.Processed()
	if got := v.InclusionProb(t1); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("p(t,t) late = %v, want target p_in 0.1", got)
	}
	if v.InclusionProb(0) != 0 || v.InclusionProb(t1+1) != 0 {
		t.Fatal("out-of-range r must have probability 0")
	}
}

func TestVariableNmaxOne(t *testing.T) {
	v, err := NewVariableReservoir(1, 1, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	feed(v, 100)
	if v.Len() != 1 {
		t.Fatalf("len = %d, want 1", v.Len())
	}
}

func TestVariableSampleIsCopy(t *testing.T) {
	v, _ := NewVariableReservoir(0.01, 50, xrand.New(7))
	feed(v, 100)
	s := v.Sample()
	if len(s) == 0 {
		t.Fatal("empty sample")
	}
	s[0].Index = 31337
	if v.Points()[0].Index == 31337 {
		t.Fatal("Sample shares storage with reservoir")
	}
}
