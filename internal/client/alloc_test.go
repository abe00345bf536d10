//go:build !race

package client

import "testing"

// TestWireConnPushAllocs: at steady state a WireConn packs, encodes,
// sends and reads the ACK of a labelled, weighted 256-point frame without
// allocating — in the client or in the loopback listener that ACKs it.
// The race detector allocates on its own, so the guard runs without it.
func TestWireConnPushAllocs(t *testing.T) {
	addr := startSinkListener(t, &ackSink{})
	wc, err := DialWire(addr, WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	pts := make([]Point, 256)
	for i := range pts {
		label := i % 4
		pts[i] = Point{Values: []float64{float64(i), 1, 2, 3}, Label: &label, Weight: 2}
	}
	push := func() {
		if err := wc.Push("s", pts); err != nil {
			t.Fatal(err)
		}
	}
	push()
	if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
		t.Fatalf("Push allocates %v times per frame at steady state, want 0", allocs)
	}
}
