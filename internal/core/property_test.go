package core

import (
	"math"
	"testing"
	"testing/quick"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Cross-cutting invariants that every Sampler implementation must satisfy
// under arbitrary Add sequences, checked with testing/quick over random
// (seed, length, parameter) combinations.

type samplerCase struct {
	name string
	mk   func(seed uint64, pick uint8) (Sampler, error)
}

func allSamplerCases() []samplerCase {
	return []samplerCase{
		{"biased", func(seed uint64, pick uint8) (Sampler, error) {
			lambda := []float64{0.5, 0.1, 0.02, 0.004}[pick%4]
			return NewBiasedReservoir(lambda, xrand.New(seed))
		}},
		{"constrained", func(seed uint64, pick uint8) (Sampler, error) {
			capacity := []int{5, 20, 80}[pick%3]
			return NewConstrainedReservoir(0.002, capacity, xrand.New(seed))
		}},
		{"variable", func(seed uint64, pick uint8) (Sampler, error) {
			capacity := []int{5, 20, 80}[pick%3]
			return NewVariableReservoir(0.002, capacity, xrand.New(seed))
		}},
		{"unbiased", func(seed uint64, pick uint8) (Sampler, error) {
			return NewUnbiasedReservoir(int(pick%40)+1, xrand.New(seed))
		}},
		{"algz", func(seed uint64, pick uint8) (Sampler, error) {
			return NewZReservoir(int(pick%40)+1, xrand.New(seed))
		}},
		{"window", func(seed uint64, pick uint8) (Sampler, error) {
			return NewWindowReservoir(uint64(pick%100)+10, int(pick%20)+1, xrand.New(seed))
		}},
		{"timedecay", func(seed uint64, pick uint8) (Sampler, error) {
			return NewTimeDecayReservoir(0.01, int(pick%40)+1, xrand.New(seed))
		}},
	}
}

// Invariants after any prefix of Adds:
//   - Len never exceeds Capacity;
//   - Processed counts every Add;
//   - every resident's arrival index is in (0, t];
//   - every resident's InclusionProb is in (0, 1];
//   - non-arrived indices have probability 0.
func TestSamplerInvariantsProperty(t *testing.T) {
	for _, tc := range allSamplerCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			check := func(seed uint64, pick uint8, lenRaw uint16) bool {
				n := int(lenRaw%2000) + 1
				s, err := tc.mk(seed, pick)
				if err != nil {
					t.Fatalf("constructor: %v", err)
				}
				for i := 1; i <= n; i++ {
					s.Add(stream.Point{Index: uint64(i), Values: []float64{float64(i)}, Weight: 1})
					if s.Len() > s.Capacity() {
						t.Errorf("len %d > capacity %d at step %d", s.Len(), s.Capacity(), i)
						return false
					}
				}
				if s.Processed() != uint64(n) {
					t.Errorf("processed %d, want %d", s.Processed(), n)
					return false
				}
				for _, p := range s.Points() {
					if p.Index == 0 || p.Index > uint64(n) {
						t.Errorf("resident index %d out of (0,%d]", p.Index, n)
						return false
					}
					pr := s.InclusionProb(p.Index)
					if !(pr > 0) || pr > 1 || math.IsNaN(pr) {
						t.Errorf("resident %d probability %v", p.Index, pr)
						return false
					}
				}
				if s.InclusionProb(0) != 0 || s.InclusionProb(uint64(n)+1) != 0 {
					t.Error("out-of-range index has nonzero probability")
					return false
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Sample must always be a defensive copy decoupled from subsequent Adds.
func TestSampleDecoupledProperty(t *testing.T) {
	for _, tc := range allSamplerCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.mk(7, 3)
			if err != nil {
				t.Fatal(err)
			}
			feed(s, 500)
			snap := s.Sample()
			indices := make([]uint64, len(snap))
			for i, p := range snap {
				indices[i] = p.Index
			}
			feed(s, 500)
			for i, p := range snap {
				if p.Index != indices[i] {
					t.Fatalf("snapshot mutated by later Adds at %d", i)
				}
			}
		})
	}
}

// VariableReservoir-specific: p_in is monotone non-increasing and never
// drops below the target.
func TestVariablePInMonotoneProperty(t *testing.T) {
	check := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw%100) + 2
		lambda := 0.5 / float64(capacity) // target p_in = 0.5
		v, err := NewVariableReservoir(lambda, capacity, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		prev := v.PIn()
		if prev != 1 {
			return false
		}
		for i := 1; i <= 5000; i++ {
			v.Add(stream.Point{Index: uint64(i), Weight: 1})
			pin := v.PIn()
			if pin > prev+1e-15 {
				t.Errorf("p_in increased: %v -> %v", prev, pin)
				return false
			}
			if pin < v.TargetPIn()-1e-15 {
				t.Errorf("p_in %v fell below target %v", pin, v.TargetPIn())
				return false
			}
			prev = pin
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Snapshot/restore must be idempotent at the byte level: restoring a
// snapshot and immediately re-marshaling yields the same bytes.
func TestSnapshotIdempotentProperty(t *testing.T) {
	cases := []struct {
		name string
		mk   func(seed uint64) snapshotter
	}{
		{"biased", func(seed uint64) snapshotter {
			b, _ := NewBiasedReservoir(0.01, xrand.New(seed))
			return b
		}},
		{"variable", func(seed uint64) snapshotter {
			v, _ := NewVariableReservoir(0.002, 50, xrand.New(seed))
			return v
		}},
		{"unbiased", func(seed uint64) snapshotter {
			u, _ := NewUnbiasedReservoir(50, xrand.New(seed))
			return u
		}},
		{"algz", func(seed uint64) snapshotter {
			z, _ := NewZReservoir(50, xrand.New(seed))
			return z
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			check := func(seed uint64, lenRaw uint16) bool {
				n := int(lenRaw%3000) + 1
				a := tc.mk(seed)
				feed(a, n)
				blob1, err := a.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				b := tc.mk(seed + 1)
				if err := b.UnmarshalBinary(blob1); err != nil {
					t.Fatal(err)
				}
				blob2, err := b.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if len(blob1) != len(blob2) {
					return false
				}
				for i := range blob1 {
					if blob1[i] != blob2[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The unbiased pair (R, Z) must agree on inclusion probability exactly,
// for any position and stream length — they claim the same distribution.
func TestUnbiasedFamilyProbabilityAgreement(t *testing.T) {
	check := func(seed uint64, lenRaw uint16, rRaw uint16) bool {
		n := int(lenRaw%2000) + 1
		r := uint64(rRaw)%uint64(n) + 1
		u, _ := NewUnbiasedReservoir(37, xrand.New(seed))
		z, _ := NewZReservoir(37, xrand.New(seed))
		for i := 1; i <= n; i++ {
			p := stream.Point{Index: uint64(i), Weight: 1}
			u.Add(p)
			z.Add(p)
		}
		return u.InclusionProb(r) == z.InclusionProb(r)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
