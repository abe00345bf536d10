//go:build !race

package server

import (
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/wire"
)

// TestIngestFrameAllocs: at steady state a 256-point frame into a
// synchronous stream allocates the copies of the points its sampler
// admits and a small constant besides: the batch buffer is pooled and
// nothing else is per frame or per point. The race detector allocates on
// its own, so the guard runs without it.
func TestIngestFrameAllocs(t *testing.T) {
	srv := New(1)
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 100})
	ms, _ := srv.lookup("s")
	admitted := func() (n uint64) {
		ms.sm.View(func(sm core.Sampler) { n = sm.(*core.VariableReservoir).Admitted() })
		return n
	}
	f := wireTestFrame(256, 10)
	f.Name = []byte("s")
	ingest := func() {
		if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
			t.Fatalf("ingest: %+v", r)
		}
	}
	for i := 0; i < 100; i++ {
		ingest()
	}
	const runs, extra = 200, 1
	before := admitted()
	allocs := testing.AllocsPerRun(runs, ingest)
	copies := float64(admitted()-before) / (runs + 1) // AllocsPerRun warms up once
	if allocs > copies+extra {
		t.Fatalf("a frame allocates %.1f times; its sampler admits %.1f points, so want at most %.1f",
			allocs, copies, copies+extra)
	}
	t.Logf("%.1f allocations per frame, %.1f admitted points", allocs, copies)
}
