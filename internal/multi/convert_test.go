package multi

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Converting a gob fleet file. Before BRESFLT1, SaveTo wrote a fleet as
// one gob value of the type below; LoadFrom refuses that form by name.
// TestConvertGobFleet rewrites such a file as BRESFLT1 records:
//
//	BIASEDRES_CONVERT_FLEET=/path/to/fleet.gob go test -run TestConvertGobFleet ./internal/multi
//
// writes /path/to/fleet.gob.bresflt1 once the converted fleet loads.
// Without the variable it converts a gob fleet it encodes itself.
// testdata/fleet.golden was converted this way.

// gobFleet is the gob fleet file's value (its type was named fleetState).
type gobFleet struct {
	Budget  int
	Lambda  float64
	Streams map[string]gobStream
}

// gobStream is one stream of a gob fleet. Share is a tiered stream's
// whole ladder; an empty Kind is a variable reservoir.
type gobStream struct {
	Share    int
	Snapshot []byte
	Tiers    int
	Ratio    float64
	Kind     string
}

// convertGobFleet rewrites a gob fleet file as BRESFLT1 records. A
// record's Next is its stream's processed count, which only the snapshot
// holds, so each snapshot is restored once on the way.
func convertGobFleet(raw []byte) ([]byte, error) {
	var f gobFleet
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&f); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(f.Streams))
	for name := range f.Streams {
		names = append(names, name)
	}
	sort.Strings(names)
	out := appendFleetHeader(nil, f.Budget, f.Lambda, len(names))
	for _, name := range names {
		st := f.Streams[name]
		cfg := core.SamplerConfig{Policy: cmp.Or(st.Kind, string(KindVariable)), Lambda: f.Lambda, Capacity: st.Share}
		if st.Tiers > 1 {
			cfg.Capacity, cfg.Tiers, cfg.TierRatio = st.Share/st.Tiers, st.Tiers, st.Ratio
		}
		fresh, err := core.SamplerFactory(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		s, err := fresh(xrand.New(0))
		if err == nil {
			err = core.Restore(s, st.Snapshot)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rec, err := durable.EncodeCheckpoint(durable.Checkpoint{Name: name, Config: cfg, Next: s.Processed(), Snapshot: st.Snapshot})
		if err != nil {
			return nil, err
		}
		out = append(out, rec...)
	}
	return out, nil
}

func TestConvertGobFleet(t *testing.T) {
	if path := os.Getenv("BIASEDRES_CONVERT_FLEET"); path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out, err := convertGobFleet(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFrom(bytes.NewReader(out), 1); err != nil {
			t.Fatalf("the converted fleet does not load: %v", err)
		}
		if err := os.WriteFile(path+".bresflt1", out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	// A gob fleet of a plain, a T-TBS and a tiered stream, written as the
	// old SaveTo wrote it.
	m, err := NewManager(400, 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("plain", 40); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterKind("ttbs", KindTTBS, 30); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterTiered("tiered", 20, 3, 4); err != nil {
		t.Fatal(err)
	}
	legacy := gobFleet{Budget: m.Budget(), Lambda: 0.02, Streams: map[string]gobStream{}}
	for _, st := range m.StreamStats() {
		for i := 1; i <= 500; i++ {
			if err := m.Add(st.Name, stream.Point{Index: uint64(i), Values: []float64{float64(i % 9)}, Weight: 1}); err != nil {
				t.Fatal(err)
			}
		}
		gs := gobStream{Share: st.Share, Kind: string(st.Kind)}
		if err := m.With(st.Name, func(s core.Sampler) (err error) {
			if tr, ok := s.(*core.TieredReservoir); ok {
				gs.Tiers, gs.Ratio = tr.NumTiers(), tr.Ratio()
			}
			gs.Snapshot, err = s.(core.PersistentSampler).MarshalBinary()
			return err
		}); err != nil {
			t.Fatal(err)
		}
		legacy.Streams[st.Name] = gs
	}
	// gob writes a struct's type name, and the old files carry this one.
	type fleetState gobFleet
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(fleetState(legacy)); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadFrom(bytes.NewReader(raw.Bytes()), 1); !errors.Is(err, errGobFleet) {
		t.Fatalf("an unconverted gob fleet loaded with error %v, want it refused by name", err)
	}
	out, err := convertGobFleet(raw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFrom(bytes.NewReader(out), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Used(), m.Used(); got != want {
		t.Fatalf("the converted fleet charges %d slots, the original %d", got, want)
	}
	for _, st := range m.StreamStats() {
		for _, h := range []uint64{50, 0} {
			want, err := m.Average(st.Name, h, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Average(st.Name, h, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: average over h=%d is %v after conversion, %v before", st.Name, h, got, want)
			}
		}
	}
}
