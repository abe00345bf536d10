package multi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/query"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Golden fleet checkpoint: testdata/fleet.golden is a SaveTo checkpoint of
// a manager holding a variable, a T-TBS, an R-TBS and a tiered stream, and
// testdata/fleet.json records what each stream answered when it was
// written. TestGoldenFleetRestores loads the file and checks the answers
// and the re-saved records, so LoadFrom keeps reading checkpoints already
// on disk. The file was written in the gob form and converted once to
// BRESFLT1 records (see TestConvertGobFleet); fleet.json is unchanged.
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

// readFleet splits fleet file bytes into the header's budget and λ and
// the stream records, independently of LoadFrom.
func readFleet(t *testing.T, raw []byte) (int, float64, []durable.Checkpoint) {
	t.Helper()
	if len(raw) < 32 || !bytes.Equal(raw[:8], []byte("BRESFLT1")) {
		t.Fatalf("not a BRESFLT1 fleet file: % x", raw[:min(len(raw), 32)])
	}
	r := bytes.NewReader(raw[32:])
	var recs []durable.Checkpoint
	for n := binary.LittleEndian.Uint64(raw[24:]); n > 0; n-- {
		ck, err := durable.ReadCheckpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, ck)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes after the last record", r.Len())
	}
	return int(binary.LittleEndian.Uint64(raw[8:])), math.Float64frombits(binary.LittleEndian.Uint64(raw[16:])), recs
}

// canonicalSnapshot decodes a record's snapshot into a sampler built here
// from its config, independently of LoadFrom, and re-encodes it in this
// process.
func canonicalSnapshot(t *testing.T, ck durable.Checkpoint) []byte {
	t.Helper()
	fresh, err := core.SamplerFactory(ck.Config)
	if err != nil {
		t.Fatal(err)
	}
	s, err := fresh(xrand.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(ck.Snapshot); err != nil {
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
	gBudget, gLambda, golden := readFleet(t, raw)
	sBudget, sLambda, saved := readFleet(t, buf.Bytes())
	if gBudget != sBudget || gLambda != sLambda || len(golden) != len(saved) {
		t.Fatalf("re-saved fleet %v/%v/%d streams, want %v/%v/%d", sBudget, sLambda, len(saved),
			gBudget, gLambda, len(golden))
	}
	for i, g := range golden {
		s := saved[i]
		if s.Name != g.Name || s.Config != g.Config || s.Next != g.Next || s.Dim != g.Dim || s.Seq != g.Seq {
			t.Errorf("record %d re-saved as %s %+v next=%d dim=%d seq=%d, want %s %+v %d/%d/%d",
				i, s.Name, s.Config, s.Next, s.Dim, s.Seq, g.Name, g.Config, g.Next, g.Dim, g.Seq)
		}
		if !bytes.Equal(s.Snapshot, canonicalSnapshot(t, g)) {
			t.Errorf("%s: re-saved snapshot differs from the golden one", g.Name)
		}
	}
}
