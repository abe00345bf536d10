package core

import (
	"math"
	"testing"
	"unsafe"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Ownership conformance: every sampler family copies the values of the
// points it retains, so callers may reuse their buffers once Add or
// AddBatch returns, and published Snapshots never change.

const ownDim = 3

// ownValue is coordinate d of the point with arrival index idx; every
// retained point must still carry it after its caller's buffer is reused.
func ownValue(idx uint64, d int) float64 { return float64(idx)*8 + float64(d) + 0.5 }

// fillBatch writes the points first, first+1, … into pts, their values
// sliced from one shared backing with two-index slices, so a retained
// slice that was not copied both aliases backing and has cap > len.
func fillBatch(pts []stream.Point, first uint64, backing []float64) {
	for i := range pts {
		idx := first + uint64(i)
		v := backing[i*ownDim : (i+1)*ownDim]
		for d := range v {
			v[d] = ownValue(idx, d)
		}
		pts[i] = stream.Point{Index: idx, Values: v, Label: int(idx % 5), Weight: 1}
	}
}

// checkOwned fails t unless every point carries its own exact-length copy
// of its values: cap == len, no alias into backing, the values written
// for its index.
func checkOwned(t *testing.T, what string, pts []stream.Point, backing []float64) {
	t.Helper()
	if len(pts) == 0 {
		t.Fatalf("%s: no points retained", what)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(backing)))
	hi := lo + uintptr(len(backing))*8
	for _, p := range pts {
		if len(p.Values) != ownDim || cap(p.Values) != len(p.Values) {
			t.Fatalf("%s: point %d has len %d cap %d, want an exact-length slice of %d",
				what, p.Index, len(p.Values), cap(p.Values), ownDim)
		}
		if a := uintptr(unsafe.Pointer(unsafe.SliceData(p.Values))); a >= lo && a < hi {
			t.Fatalf("%s: point %d aliases the caller's values backing", what, p.Index)
		}
		for d, v := range p.Values {
			if v != ownValue(p.Index, d) {
				t.Fatalf("%s: point %d value %d is %v, want %v", what, p.Index, d, v, ownValue(p.Index, d))
			}
		}
	}
}

// snapshotBits is a snapshot's whole content as raw words, for an exact
// before/after comparison.
func snapshotBits(s *Snapshot) []uint64 {
	out := []uint64{s.Version, s.T, uint64(s.Cap), uint64(len(s.Points))}
	for i, p := range s.Points {
		out = append(out, p.Index, uint64(p.Label), math.Float64bits(p.Weight), math.Float64bits(s.Probs[i]), uint64(len(p.Values)))
		for _, v := range p.Values {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// ownershipCases are every registered family, each tiered one also as a
// three-tier ladder, plus the Algorithm Z baseline.
func ownershipCases(t *testing.T) map[string]func(rng *xrand.Source) (Sampler, error) {
	cases := map[string]func(rng *xrand.Source) (Sampler, error){
		"algz": func(rng *xrand.Source) (Sampler, error) { return NewZReservoir(50, rng) },
	}
	for _, name := range Policies() {
		cfg := SamplerConfig{Policy: name, Lambda: 0.01, Capacity: 50, Window: 200}
		configs := map[string]SamplerConfig{name: cfg}
		if p, _ := lookupPolicy(name); p.tiered {
			cfg.Tiers = 3
			configs[name+"/tiers=3"] = cfg
		}
		for label, c := range configs {
			fresh, err := SamplerFactory(c)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cases[label] = func(rng *xrand.Source) (Sampler, error) { return fresh(rng) }
		}
	}
	return cases
}

func TestSamplersOwnRetainedValues(t *testing.T) {
	const first, more, batch = 600, 10_000, 250
	for name, mk := range ownershipCases(t) {
		t.Run(name, func(t *testing.T) {
			inner, err := mk(xrand.New(1))
			if err != nil {
				t.Fatal(err)
			}
			s := NewSynchronized(inner)
			backing := make([]float64, first*ownDim)
			pts := make([]stream.Point, first)
			fillBatch(pts, 1, backing)
			s.AddBatch(pts)
			snap := s.AcquireSnapshot()
			for i := range backing {
				backing[i] = math.NaN()
			}
			checkOwned(t, "Sample after the caller's backing is overwritten", s.Sample(), backing)
			checkOwned(t, "Snapshot taken before the overwrite", snap.Points, backing)

			// A held snapshot must not move while 10k more arrivals come
			// through one reused batch buffer.
			held := s.AcquireSnapshot()
			want := snapshotBits(held)
			buf, bpts := make([]float64, batch*ownDim), make([]stream.Point, batch)
			for next := uint64(first + 1); next <= first+more; next += batch {
				fillBatch(bpts, next, buf)
				s.AddBatch(bpts)
			}
			if s.Processed() != first+more {
				t.Fatalf("processed %d, want %d", s.Processed(), first+more)
			}
			got := snapshotBits(held)
			if len(got) != len(want) {
				t.Fatalf("held snapshot changed size: %d words, was %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("held snapshot changed at word %d: %#x, was %#x", i, got[i], want[i])
				}
			}
			checkOwned(t, "Sample after 10k arrivals through a reused buffer", s.Sample(), buf)
		})
	}
}

// The weighted reservoir is not a Sampler, but it keeps points the same
// way.
func TestWeightedReservoirOwnsRetainedValues(t *testing.T) {
	w, err := NewWeightedReservoir(50, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	backing := make([]float64, 200*ownDim)
	pts := make([]stream.Point, 200)
	fillBatch(pts, 1, backing)
	for _, p := range pts {
		w.Add(p)
	}
	for i := range backing {
		backing[i] = math.NaN()
	}
	checkOwned(t, "weighted Sample after the caller's backing is overwritten", w.Sample(), backing)
}
