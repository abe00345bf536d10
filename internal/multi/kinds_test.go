package multi

import (
	"bytes"
	"encoding/gob"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

func TestRegisterKind(t *testing.T) {
	m, err := NewManager(3000, 1e-2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterKind("v", KindVariable, 50); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterKind("t", KindTTBS, 50); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterKind("r", KindRTBS, 50); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterKind("x", Kind("nope"), 50); err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, k := range Kinds() {
		if !core.ValidPolicy(string(k)) {
			t.Fatalf("kind %q is not a core sampler policy", k)
		}
	}
	// R-TBS is uncapped: a share beyond ⌊1/λ⌋ = 100 is legal there but not
	// for the variable family.
	if err := m.RegisterKind("big-r", KindRTBS, 500); err != nil {
		t.Fatalf("R-TBS share beyond 1/λ rejected: %v", err)
	}
	if err := m.RegisterKind("big-v", KindVariable, 500); err == nil {
		t.Fatal("variable share beyond 1/λ accepted")
	}
	// T-TBS enforces its own tighter-than-budget bound via its constructor.
	if err := m.RegisterKind("big-t", KindTTBS, 500); err == nil {
		t.Fatal("T-TBS target beyond 1/(1-e^{-λ}) accepted")
	}

	for i := 1; i <= 2000; i++ {
		p := stream.Point{Index: uint64(i), Values: []float64{float64(i)}, Weight: 1}
		for _, name := range []string{"v", "t", "r"} {
			if err := m.Add(name, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	kinds := map[string]Kind{}
	for _, st := range m.StreamStats() {
		kinds[st.Name] = st.Kind
		if st.Len == 0 && st.Processed > 0 {
			t.Errorf("stream %s (%s): empty reservoir after 2000 points", st.Name, st.Kind)
		}
	}
	for name, want := range map[string]Kind{"v": KindVariable, "t": KindTTBS, "r": KindRTBS} {
		if kinds[name] != want {
			t.Errorf("stream %s reports kind %q, want %q", name, kinds[name], want)
		}
	}
}

// A mixed-kind fleet checkpoint restores every stream with its own family
// and resumes identically.
func TestFleetCheckpointMixedKinds(t *testing.T) {
	m, err := NewManager(300, 1e-2, 5)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]Kind{"v": KindVariable, "t": KindTTBS, "r": KindRTBS}
	for name, kind := range streams {
		if err := m.RegisterKind(name, kind, 60); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3000; i++ {
		p := stream.Point{Index: uint64(i), Values: []float64{float64(i)}, Weight: 1}
		for name := range streams {
			if err := m.Add(name, p); err != nil {
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
	for _, st := range restored.StreamStats() {
		if st.Kind != streams[st.Name] {
			t.Errorf("restored stream %s has kind %q, want %q", st.Name, st.Kind, streams[st.Name])
		}
	}
	// Both managers keep sampling identically after the restore.
	for i := 0; i < 2000; i++ {
		p := stream.Point{Index: uint64(5000 + i), Values: []float64{1}, Weight: 1}
		for name := range streams {
			if err := m.Add(name, p); err != nil {
				t.Fatal(err)
			}
			if err := restored.Add(name, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name := range streams {
		a, _ := m.Sample(name)
		b, _ := restored.Sample(name)
		if len(a) != len(b) {
			t.Fatalf("%s: restored resumed to %d points, original %d", name, len(b), len(a))
		}
		for i := range a {
			if a[i].Index != b[i].Index {
				t.Fatalf("%s: post-restore sampling diverged at slot %d", name, i)
			}
		}
	}
}

// legacyStreamState/legacyFleetState mirror the checkpoint schema from
// before sampler kinds existed; gob matches fields by name, so decoding a
// legacy blob leaves Kind empty.
type legacyStreamState struct {
	Share    int
	Snapshot []byte
	Tiers    int
	Ratio    float64
}

type legacyFleetState struct {
	Budget  int
	Lambda  float64
	Streams map[string]legacyStreamState
}

// A checkpoint written before streamState carried a Kind restores as the
// historical default: a variable reservoir.
func TestFleetCheckpointLegacyDecode(t *testing.T) {
	const lambda = 1e-2
	vr, err := core.NewVariableReservoir(lambda, 60, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		vr.Add(stream.Point{Index: uint64(i), Values: []float64{float64(i)}, Weight: 1})
	}
	blob, err := vr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	legacy := legacyFleetState{
		Budget:  100,
		Lambda:  lambda,
		Streams: map[string]legacyStreamState{"old": {Share: 60, Snapshot: blob}},
	}
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFrom(&buf, 7)
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	stats := m.StreamStats()
	if len(stats) != 1 || stats[0].Kind != KindVariable {
		t.Fatalf("legacy stream restored as %+v, want kind %q", stats, KindVariable)
	}
	pts, err := m.Sample("old")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("legacy stream restored empty")
	}
}
