package multi

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/query"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Golden fleet checkpoint: testdata/fleet.golden is a SaveTo checkpoint of
// a manager holding a variable, a T-TBS, an R-TBS and a tiered stream, and
// testdata/fleet.json records what each stream answered when it was
// written. TestGoldenFleetRestores loads the file and checks the answers
// and the re-saved bytes, so LoadFrom keeps reading checkpoints already on
// disk.
//
// Gob numbers types in the order a process first encodes them, so a
// stream's snapshot bytes are compared after one decode/encode round trip
// through a sampler the test builds itself.
//
// Regenerate with:
//
//	BIASEDRES_GEN_GOLDEN=1 go test -run TestGenerateGoldenFleet ./internal/multi

const (
	goldenFleet    = "testdata/fleet.golden"
	goldenFleetDir = "testdata"
	goldenLambda   = 0.02
)

type goldenAnswer struct {
	Name    string    `json:"name"`
	Count   float64   `json:"count"`
	Routed  float64   `json:"routed_count"`
	Average []float64 `json:"average"`
}

func goldenFleetAnswers(t *testing.T, m *Manager) []goldenAnswer {
	t.Helper()
	var out []goldenAnswer
	for _, st := range m.StreamStats() {
		count, err := m.Estimate(st.Name, query.Count(50))
		if err != nil {
			t.Fatal(err)
		}
		snap, _, err := m.SnapshotFor(st.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		avg, err := m.Average(st.Name, 100, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenAnswer{Name: st.Name, Count: count, Routed: query.EstimateOn(snap, query.Count(0)), Average: avg})
	}
	return out
}

func TestGenerateGoldenFleet(t *testing.T) {
	if os.Getenv("BIASEDRES_GEN_GOLDEN") != "1" {
		t.Skip("set BIASEDRES_GEN_GOLDEN=1 to regenerate the golden fleet checkpoint")
	}
	m, err := NewManager(400, goldenLambda, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name  string
		kind  Kind
		share int
	}{{"variable", KindVariable, 40}, {"ttbs", KindTTBS, 30}, {"rtbs", KindRTBS, 30}} {
		if err := m.RegisterKind(r.name, r.kind, r.share); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RegisterTiered("tiered", 20, 3, 4); err != nil {
		t.Fatal(err)
	}
	for _, st := range m.StreamStats() {
		for from := 1; from <= 300; from += 50 {
			batch := make([]stream.Point, 50)
			for k := range batch {
				i := from + k
				batch[k] = stream.Point{Index: uint64(i), Values: []float64{float64(i % 7), float64(i) / 3}, Label: i % 3, Weight: 1}
			}
			if err := m.AddBatch(st.Name, batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Add(st.Name, stream.Point{Index: 301, Values: []float64{1, 2}, Label: 0, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenFleetDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFleet, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(goldenFleetAnswers(t, m), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenFleetDir, "fleet.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// canonicalSnapshot decodes a stream's snapshot into a sampler built here,
// independently of LoadFrom, and re-encodes it in this process.
func canonicalSnapshot(t *testing.T, lambda float64, st streamState) []byte {
	t.Helper()
	var s core.PersistentSampler
	var err error
	switch {
	case st.Tiers > 1:
		s, err = core.NewTieredReservoir(lambda, st.Ratio, st.Tiers, xrand.New(0),
			func(_ int, l float64, rng *xrand.Source) (core.PersistentSampler, error) {
				return core.NewVariableReservoir(l, st.Share/st.Tiers, rng)
			})
	case st.Kind == string(KindTTBS):
		s, err = core.NewTTBSReservoir(lambda, st.Share, xrand.New(0))
	case st.Kind == string(KindRTBS):
		s, err = core.NewRTBSReservoir(lambda, st.Share, xrand.New(0))
	default:
		s, err = core.NewVariableReservoir(lambda, st.Share, xrand.New(0))
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(st.Snapshot); err != nil {
		t.Fatal(err)
	}
	out, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGoldenFleetRestores(t *testing.T) {
	raw, err := os.ReadFile(goldenFleet)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenAnswer
	blob, err := os.ReadFile(filepath.Join(goldenFleetDir, "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFrom(bytes.NewReader(raw), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenFleetAnswers(t, m); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored fleet answers\n%+v\nwant\n%+v", got, want)
	}

	var buf bytes.Buffer
	if err := m.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	var golden, saved fleetState
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&golden); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&saved); err != nil {
		t.Fatal(err)
	}
	if golden.Budget != saved.Budget || golden.Lambda != saved.Lambda || len(golden.Streams) != len(saved.Streams) {
		t.Fatalf("re-saved fleet %v/%v/%d streams, want %v/%v/%d", saved.Budget, saved.Lambda, len(saved.Streams),
			golden.Budget, golden.Lambda, len(golden.Streams))
	}
	for name, g := range golden.Streams {
		s, ok := saved.Streams[name]
		if !ok {
			t.Fatalf("stream %q missing from the re-saved fleet", name)
		}
		if s.Share != g.Share || s.Tiers != g.Tiers || s.Ratio != g.Ratio || s.Kind != g.Kind {
			t.Errorf("%s: re-saved as share=%d tiers=%d ratio=%v kind=%q, want %d/%d/%v/%q",
				name, s.Share, s.Tiers, s.Ratio, s.Kind, g.Share, g.Tiers, g.Ratio, g.Kind)
		}
		if !bytes.Equal(s.Snapshot, canonicalSnapshot(t, golden.Lambda, g)) {
			t.Errorf("%s: re-saved snapshot differs from the golden one", name)
		}
	}
}
