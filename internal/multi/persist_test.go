package multi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

func TestFleetCheckpointRoundTrip(t *testing.T) {
	m, err := NewManager(300, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	if err := m.RegisterEven(names); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		for j := 1; j <= 2000*(i+1); j++ {
			if err := m.Add(name, stream.Point{Index: uint64(j), Values: []float64{float64(j)}, Weight: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var buf bytes.Buffer
	if err := m.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadFrom(&buf, 99)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Budget() != 300 || restored.Used() != m.Used() || restored.Len() != 3 {
		t.Fatalf("restored budget/used/len = %d/%d/%d", restored.Budget(), restored.Used(), restored.Len())
	}
	// Every stream resumes with identical reservoir contents.
	for _, name := range names {
		want, err := m.Sample(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Sample(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("%s: restored %d points, want %d", name, len(got), len(want))
		}
		for i := range want {
			if want[i].Index != got[i].Index {
				t.Fatalf("%s: slot %d diverged", name, i)
			}
		}
	}
	// And keeps sampling identically to the original.
	for i := 0; i < 1000; i++ {
		p := stream.Point{Index: uint64(10000 + i), Values: []float64{1}, Weight: 1}
		if err := m.Add("a", p); err != nil {
			t.Fatal(err)
		}
		if err := restored.Add("a", p); err != nil {
			t.Fatal(err)
		}
	}
	a1, _ := m.Sample("a")
	a2, _ := restored.Sample("a")
	for i := range a1 {
		if a1[i].Index != a2[i].Index {
			t.Fatalf("post-restore sampling diverged at slot %d", i)
		}
	}
}

func TestFleetCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadFrom(strings.NewReader("not a gob"), 1); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A fleet checkpoint whose stream snapshot runs another capacity and λ
// than the share and manager λ it is charged at is refused with the
// daemon's shape error: loaded as is, the stream would hold 1000 slots
// while the budget counts 10.
func TestFleetCheckpointRefusesMismatchedSnapshot(t *testing.T) {
	v, err := core.NewVariableReservoir(0.001, 1000, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3000; i++ {
		v.Add(stream.Point{Index: uint64(i), Values: []float64{float64(i)}, Weight: 1})
	}
	snap, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := durable.EncodeCheckpoint(durable.Checkpoint{Name: "s",
		Config: core.SamplerConfig{Policy: string(KindVariable), Lambda: 0.1, Capacity: 10}, Next: 3000, Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadFrom(bytes.NewReader(append(appendFleetHeader(nil, 10, 0.1, 1), rec...)), 1)
	if err == nil {
		t.Fatalf("mismatched snapshot loaded: used %d of budget %d", m.Used(), m.Budget())
	}
	want := `snapshot runs {Capacity:1000 Lambda:0.001 Window:0}, the stream is configured for {Capacity:10 Lambda:0.1 Window:0}`
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the shape mismatch %q", err, want)
	}
}

func TestFleetCheckpointBudgetValidation(t *testing.T) {
	m, _ := NewManager(100, 1e-2, 1)
	if err := m.Register("x", 50); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Tamper: decode-encode with an inflated share is awkward via gob,
	// so instead verify a valid checkpoint loads and new registrations
	// still respect the remaining budget.
	restored, err := LoadFrom(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Register("y", 60); err == nil {
		t.Fatal("over-budget registration accepted after restore")
	}
	if err := restored.Register("y", 50); err != nil {
		t.Fatalf("legal registration rejected: %v", err)
	}
}

func TestFleetCheckpointManyStreams(t *testing.T) {
	m, _ := NewManager(2000, 1e-3, 3)
	names := make([]string, 100)
	for i := range names {
		names[i] = fmt.Sprintf("s%03d", i)
	}
	if err := m.RegisterEven(names); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		for j := 1; j <= 200; j++ {
			_ = m.Add(name, stream.Point{Index: uint64(j), Weight: 1})
		}
	}
	var buf bytes.Buffer
	if err := m.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFrom(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 100 {
		t.Fatalf("restored %d streams", restored.Len())
	}
	for _, s := range restored.StreamStats() {
		if s.Processed != 200 {
			t.Fatalf("stream %s processed %d", s.Name, s.Processed)
		}
	}
}

func TestFleetCheckpointTieredRoundTrip(t *testing.T) {
	m, err := NewManager(1000, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterTiered("tiered", 100, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("plain", 200); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		p := stream.Point{Index: uint64(i), Values: []float64{float64(i)}, Weight: 1}
		if err := m.Add("tiered", p); err != nil {
			t.Fatal(err)
		}
		if err := m.Add("plain", p); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := m.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFrom(&buf, 99)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Used() != m.Used() {
		t.Fatalf("restored used = %d, want %d", restored.Used(), m.Used())
	}
	// The ladder structure survives: deep horizons still route deep, and
	// every tier resumes with identical residents.
	for _, h := range []uint64{100, 2000, 5000} {
		wantSnap, wantTier, err := m.SnapshotFor("tiered", h)
		if err != nil {
			t.Fatal(err)
		}
		gotSnap, gotTier, err := restored.SnapshotFor("tiered", h)
		if err != nil {
			t.Fatal(err)
		}
		if gotTier != wantTier {
			t.Fatalf("h=%d: restored routes to tier %d, original to %d", h, gotTier, wantTier)
		}
		if len(gotSnap.Points) != len(wantSnap.Points) {
			t.Fatalf("h=%d: restored tier holds %d points, want %d", h, len(gotSnap.Points), len(wantSnap.Points))
		}
		for i := range wantSnap.Points {
			if gotSnap.Points[i].Index != wantSnap.Points[i].Index {
				t.Fatalf("h=%d: slot %d diverged", h, i)
			}
		}
	}
	// Resume-identical: both ladders keep sampling in lockstep.
	for i := 0; i < 2000; i++ {
		p := stream.Point{Index: uint64(10000 + i), Values: []float64{1}, Weight: 1}
		if err := m.Add("tiered", p); err != nil {
			t.Fatal(err)
		}
		if err := restored.Add("tiered", p); err != nil {
			t.Fatal(err)
		}
	}
	w, _, _ := m.SnapshotFor("tiered", 20000)
	g, _, _ := restored.SnapshotFor("tiered", 20000)
	if len(w.Points) != len(g.Points) {
		t.Fatalf("post-restore lengths diverged: %d vs %d", len(w.Points), len(g.Points))
	}
	for i := range w.Points {
		if w.Points[i].Index != g.Points[i].Index {
			t.Fatalf("post-restore sampling diverged at slot %d", i)
		}
	}
}
