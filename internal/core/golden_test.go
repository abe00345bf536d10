package core

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Golden snapshot fixtures: testdata/snapshots holds one MarshalBinary
// snapshot of every sampler kind (skip and algz included) and
// manifest.json records what each sampler held after a fixed continuation
// was fed on top of that snapshot: the resident arrival indices, the
// processed count and every resident's inclusion probability.
// TestGoldenSnapshotsResume decodes each fixture into a fresh sampler,
// feeds the same continuation and compares — the guard that the snapshot
// format and the decode path keep reading snapshots already on disk.
//
// Gob numbers types in the order a process first encodes them, so the
// comparison is on restored state, not on bytes.
//
// Regenerate with:
//
//	BIASEDRES_GEN_GOLDEN=1 go test -run TestGenerateGoldenSnapshots ./internal/core

const goldenSnapDir = "testdata/snapshots"

// goldenKinds builds a fresh sampler of every persistent kind. The seed is
// irrelevant to a restored sampler: the snapshot carries its generator.
var goldenKinds = []struct {
	name string
	mk   func(rng *xrand.Source) (PersistentSampler, error)
}{
	{"biased", func(rng *xrand.Source) (PersistentSampler, error) { return NewBiasedReservoir(0.05, rng) }},
	{"constrained", func(rng *xrand.Source) (PersistentSampler, error) { return NewConstrainedReservoir(0.02, 30, rng) }},
	{"variable", func(rng *xrand.Source) (PersistentSampler, error) { return NewVariableReservoir(0.02, 40, rng) }},
	{"unbiased", func(rng *xrand.Source) (PersistentSampler, error) { return NewUnbiasedReservoir(30, rng) }},
	{"algz", func(rng *xrand.Source) (PersistentSampler, error) { return NewZReservoir(8, rng) }},
	{"window", func(rng *xrand.Source) (PersistentSampler, error) { return NewWindowReservoir(50, 10, rng) }},
	{"timedecay", func(rng *xrand.Source) (PersistentSampler, error) { return NewTimeDecayReservoir(0.05, 30, rng) }},
	{"ttbs", func(rng *xrand.Source) (PersistentSampler, error) { return NewTTBSReservoir(0.02, 30, rng) }},
	{"rtbs", func(rng *xrand.Source) (PersistentSampler, error) { return NewRTBSReservoir(0.02, 30, rng) }},
	{"tiered", func(rng *xrand.Source) (PersistentSampler, error) {
		f, err := SamplerFactory(SamplerConfig{Policy: "variable", Lambda: 0.05, Capacity: 20, Tiers: 3, TierRatio: 4})
		if err != nil {
			return nil, err
		}
		return f(rng)
	}},
}

type goldenSnapEntry struct {
	Name      string    `json:"name"`
	Processed uint64    `json:"processed"`
	Indices   []uint64  `json:"indices"`
	Probs     []float64 `json:"probs"`
}

// goldenFeed feeds arrivals [from, from+n) in batches of 25: dim 2, three
// labels, and on time-decay samplers a timestamp that jumps by 3 on every
// seventh arrival.
func goldenFeed(t testing.TB, s PersistentSampler, from, n int) {
	t.Helper()
	for lo := from; lo < from+n; lo += 25 {
		batch := make([]stream.Point, 0, 25)
		for i := lo; i < lo+25 && i < from+n; i++ {
			batch = append(batch, stream.Point{
				Index: uint64(i), Values: []float64{float64(i % 7), float64(i) / 3},
				Label: i % 3, Weight: 1,
			})
		}
		ts, timed := AsTimed(s)
		if !timed {
			AddBatch(s, batch)
			continue
		}
		for _, p := range batch {
			at := float64(p.Index) + float64(3*(p.Index/7))
			if err := ts.AddAt(p, at); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func goldenState(name string, s PersistentSampler) goldenSnapEntry {
	e := goldenSnapEntry{Name: name, Processed: s.Processed()}
	for _, p := range s.Points() {
		e.Indices = append(e.Indices, p.Index)
		e.Probs = append(e.Probs, s.InclusionProb(p.Index))
	}
	return e
}

func TestGenerateGoldenSnapshots(t *testing.T) {
	if os.Getenv("BIASEDRES_GEN_GOLDEN") != "1" {
		t.Skip("set BIASEDRES_GEN_GOLDEN=1 to regenerate the golden snapshots")
	}
	if err := os.MkdirAll(goldenSnapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var manifest []goldenSnapEntry
	for i, k := range goldenKinds {
		s, err := k.mk(xrand.New(uint64(11 + i)))
		if err != nil {
			t.Fatal(err)
		}
		goldenFeed(t, s, 1, 400)
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenSnapDir, k.name+".snap"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		goldenFeed(t, s, 401, 300)
		manifest = append(manifest, goldenState(k.name, s))
	}
	blob, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenSnapDir, "manifest.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenSnapshotsResume(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(goldenSnapDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest []goldenSnapEntry
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest) != len(goldenKinds) {
		t.Fatalf("manifest has %d entries, want %d", len(manifest), len(goldenKinds))
	}
	for i, k := range goldenKinds {
		want := manifest[i]
		t.Run(k.name, func(t *testing.T) {
			if want.Name != k.name {
				t.Fatalf("manifest entry %d is %q", i, want.Name)
			}
			blob, err := os.ReadFile(filepath.Join(goldenSnapDir, k.name+".snap"))
			if err != nil {
				t.Fatal(err)
			}
			s, err := k.mk(xrand.New(999))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			goldenFeed(t, s, 401, 300)
			got := goldenState(k.name, s)
			if got.Processed != want.Processed || len(got.Indices) != len(want.Indices) {
				t.Fatalf("processed %d size %d, want %d and %d",
					got.Processed, len(got.Indices), want.Processed, len(want.Indices))
			}
			for j := range want.Indices {
				if got.Indices[j] != want.Indices[j] {
					t.Fatalf("slot %d holds %d, want %d", j, got.Indices[j], want.Indices[j])
				}
				if math.Abs(got.Probs[j]-want.Probs[j]) > 1e-12*math.Max(1, want.Probs[j]) {
					t.Fatalf("slot %d probability %v, want %v", j, got.Probs[j], want.Probs[j])
				}
			}
		})
	}
}
