package core

import (
	"bytes"
	"encoding"
	"testing"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// snapshotter is what every persistent sampler satisfies.
type snapshotter interface {
	Sampler
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// resumeIdentical checks the core persistence contract: feeding N points,
// snapshotting, restoring into a fresh sampler and feeding M more points
// must produce exactly the reservoir an uninterrupted N+M run produces.
func resumeIdentical(t *testing.T, name string, mk func() snapshotter, n, m int) {
	t.Helper()
	uninterrupted := mk()
	feed(uninterrupted, n+m)

	first := mk()
	feed(first, n)
	blob, err := first.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal: %v", name, err)
	}
	resumed := mk()
	if err := resumed.UnmarshalBinary(blob); err != nil {
		t.Fatalf("%s: unmarshal: %v", name, err)
	}
	for i := n + 1; i <= n+m; i++ {
		resumed.Add(stream.Point{Index: uint64(i), Values: []float64{float64(i)}, Weight: 1})
	}

	a, b := uninterrupted.Points(), resumed.Points()
	if len(a) != len(b) {
		t.Fatalf("%s: resumed size %d vs uninterrupted %d", name, len(b), len(a))
	}
	for i := range a {
		if a[i].Index != b[i].Index {
			t.Fatalf("%s: slot %d diverged: %d vs %d", name, i, a[i].Index, b[i].Index)
		}
	}
	if uninterrupted.Processed() != resumed.Processed() {
		t.Fatalf("%s: processed %d vs %d", name, uninterrupted.Processed(), resumed.Processed())
	}
}

func TestResumeIdenticalAcrossSamplers(t *testing.T) {
	cases := []struct {
		name string
		mk   func() snapshotter
	}{
		{"biased", func() snapshotter {
			b, _ := NewBiasedReservoir(0.01, xrand.New(7))
			return b
		}},
		{"constrained", func() snapshotter {
			b, _ := NewConstrainedReservoir(0.001, 100, xrand.New(7))
			return b
		}},
		{"variable", func() snapshotter {
			v, _ := NewVariableReservoir(0.001, 100, xrand.New(7))
			return v
		}},
		{"unbiased", func() snapshotter {
			u, _ := NewUnbiasedReservoir(100, xrand.New(7))
			return u
		}},
		{"algz", func() snapshotter {
			z, _ := NewZReservoir(100, xrand.New(7))
			return z
		}},
		{"window", func() snapshotter {
			w, _ := NewWindowReservoir(500, 20, xrand.New(7))
			return w
		}},
		{"timedecay", func() snapshotter {
			d, _ := NewTimeDecayReservoir(0.005, 100, xrand.New(7))
			return d
		}},
		{"ttbs", func() snapshotter {
			s, _ := NewTTBSReservoir(0.005, 100, xrand.New(7))
			return s
		}},
		{"rtbs", func() snapshotter {
			s, _ := NewRTBSReservoir(0.005, 100, xrand.New(7))
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resumeIdentical(t, tc.name, tc.mk, 3000, 3000)
			// Snapshot during warm-up too.
			resumeIdentical(t, tc.name+"-early", tc.mk, 10, 500)
		})
	}
}

func TestSnapshotKindMismatch(t *testing.T) {
	b, _ := NewBiasedReservoir(0.01, xrand.New(1))
	feed(b, 100)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	u, _ := NewUnbiasedReservoir(10, xrand.New(1))
	if err := u.UnmarshalBinary(blob); err == nil {
		t.Fatal("biased snapshot restored into unbiased sampler")
	}
}

func TestSnapshotGarbage(t *testing.T) {
	b, _ := NewBiasedReservoir(0.01, xrand.New(1))
	if err := b.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if err := b.UnmarshalBinary([]byte{kindBiased, 0xde, 0xad}); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestSnapshotCorruptCounts(t *testing.T) {
	// Hand-craft a snapshot whose reservoir exceeds its capacity.
	bad := biasedState{Lambda: 0.1, PIn: 1, Capacity: 1, T: 5,
		Pts: make([]stream.Point, 3)}
	rngBytes, _ := xrand.New(1).MarshalBinary()
	bad.RNG = rngBytes
	blob, err := marshalState(kindBiased, bad)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewBiasedReservoir(0.01, xrand.New(1))
	if err := b.UnmarshalBinary(blob); err == nil {
		t.Fatal("over-capacity snapshot accepted")
	}
}

func TestTimeDecaySnapshotRebuildsHeap(t *testing.T) {
	d, _ := NewTimeDecayReservoir(0.01, 50, xrand.New(3))
	for i := 1; i <= 2000; i++ {
		d.Add(stream.Point{Index: uint64(i), Weight: 1})
	}
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := NewTimeDecayReservoir(1, 1, xrand.New(9)) // params overwritten
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != d.Len() || restored.Capacity() != 50 {
		t.Fatalf("restored len/cap %d/%d", restored.Len(), restored.Capacity())
	}
	// Expiry machinery must still work: a long idle gap clears every old
	// resident (the probe itself enters only with probability p_in).
	if err := restored.AddAt(stream.Point{Index: 99999, Weight: 1}, restored.Now()+1e9); err != nil {
		t.Fatal(err)
	}
	if restored.Len() > 1 {
		t.Fatalf("heap not rebuilt: %d residents survived an infinite gap", restored.Len())
	}
	if restored.Len() == 1 && restored.Points()[0].Index != 99999 {
		t.Fatalf("stale resident %d survived", restored.Points()[0].Index)
	}
}

func TestXrandSnapshotRoundTrip(t *testing.T) {
	src := xrand.New(42)
	src.NormFloat64() // populate the Gaussian cache
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	clone := xrand.New(0)
	if err := clone.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if src.Uint64() != clone.Uint64() {
			t.Fatalf("restored generator diverged at step %d", i)
		}
	}
	// The cached Gaussian must survive the round trip too.
	a, b := xrand.New(5), xrand.New(0)
	a.NormFloat64()
	blob2, _ := a.MarshalBinary()
	if err := b.UnmarshalBinary(blob2); err != nil {
		t.Fatal(err)
	}
	if a.NormFloat64() != b.NormFloat64() {
		t.Fatal("Gaussian cache lost in round trip")
	}
	if err := b.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("short snapshot accepted")
	}
}

// A snapshot's own budget must never size an allocation. Re-encoded with
// n_max = 2^38, a variable snapshot used to make a 13 TB slice on decode
// and kill the process; now a budget the snapshot's λ forbids is refused,
// and one it allows is not allocated up front.
func TestVariableRestoreHugeBudget(t *testing.T) {
	src, _ := NewVariableReservoir(0.02, 40, xrand.New(1))
	feed(src, 200)
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var st variableState
	if err := unmarshalState(kindVariable, blob, &st); err != nil {
		t.Fatal(err)
	}
	st.Nmax = 1 << 38
	crafted, err := marshalState(kindVariable, st)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := NewVariableReservoir(0.02, 40, xrand.New(2))
	if err := v.UnmarshalBinary(crafted); err == nil {
		t.Fatal("budget 2^38 at λ=0.02 accepted")
	}

	st.Lambda = 1e-13 // n_max·λ < 1: a valid budget, just not the receiver's
	if crafted, err = marshalState(kindVariable, st); err != nil {
		t.Fatal(err)
	}
	if err := v.UnmarshalBinary(crafted); err != nil {
		t.Fatal(err)
	}
	if c := cap(v.st.Pts); c != v.Len() {
		t.Fatalf("restore allocated %d slots for %d points", c, v.Len())
	}
	for i := 0; i < 100; i++ {
		v.Add(stream.Point{Index: v.Processed() + 1, Weight: 1})
		if c := cap(v.st.Pts); c > 2*v.Len()+1 {
			t.Fatalf("cap %d for %d points: grew past doubling", c, v.Len())
		}
	}
}

// FuzzUnmarshalSnapshot feeds arbitrary bytes to every sampler kind's
// UnmarshalBinary. Decoding must never panic, and a snapshot a sampler
// accepts must re-marshal to bytes that decode to the same state, which
// within one process means they re-marshal to the same bytes again.
func FuzzUnmarshalSnapshot(f *testing.F) {
	for i, k := range goldenKinds {
		s, err := k.mk(xrand.New(uint64(i + 1)))
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{0, 5, 300} {
			blob, err := s.MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
			goldenFeed(f, s, int(s.Processed())+1, n)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range goldenKinds {
			s, err := k.mk(xrand.New(1))
			if err != nil {
				t.Fatal(err)
			}
			if s.UnmarshalBinary(data) != nil {
				continue
			}
			once, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: re-marshal: %v", k.name, err)
			}
			again, _ := k.mk(xrand.New(2))
			if err := again.UnmarshalBinary(once); err != nil {
				t.Fatalf("%s: re-marshaled snapshot refused: %v", k.name, err)
			}
			twice, err := again.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: re-marshal: %v", k.name, err)
			}
			if !bytes.Equal(once, twice) {
				t.Fatalf("%s: state changed across a round trip", k.name)
			}
		}
	})
}
