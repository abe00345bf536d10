package core

import (
	"sync"
	"testing"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

func TestSynchronizedBasics(t *testing.T) {
	b, _ := NewBiasedReservoir(0.1, xrand.New(1))
	s := NewSynchronized(b)
	feed(s, 100)
	if s.Len() != b.Len() || s.Capacity() != 10 || s.Processed() != 100 {
		t.Fatalf("wrapper state mismatch: len=%d cap=%d t=%d", s.Len(), s.Capacity(), s.Processed())
	}
	if got := s.InclusionProb(100); got != b.InclusionProb(100) {
		t.Fatalf("InclusionProb mismatch: %v", got)
	}
	pts := s.Points()
	pts[0].Index = 777
	if b.Points()[0].Index == 777 {
		t.Fatal("Synchronized.Points leaked shared storage")
	}
}

func TestSynchronizedConcurrentAdds(t *testing.T) {
	b, _ := NewBiasedReservoir(0.001, xrand.New(2))
	s := NewSynchronized(b)
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Add(stream.Point{Index: uint64(g*perG + i + 1), Weight: 1})
			}
		}(g)
	}
	// Concurrent readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = s.Sample()
			_ = s.Len()
			_, _, _ = s.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if s.Processed() != goroutines*perG {
		t.Fatalf("Processed = %d, want %d", s.Processed(), goroutines*perG)
	}
	if s.Len() > s.Capacity() {
		t.Fatalf("capacity exceeded under concurrency: %d > %d", s.Len(), s.Capacity())
	}
}

func TestSnapshotConsistency(t *testing.T) {
	b, _ := NewBiasedReservoir(0.01, xrand.New(3))
	s := NewSynchronized(b)
	feed(s, 500)
	pts, tt, prob := s.Snapshot()
	if tt != 500 {
		t.Fatalf("snapshot t = %d", tt)
	}
	for _, p := range pts {
		if prob(p.Index) <= 0 {
			t.Fatalf("snapshot probability for resident point %d is %v", p.Index, prob(p.Index))
		}
	}
	// Probabilities stay bound to the snapshot even after more Adds.
	before := prob(pts[0].Index)
	feed(s, 1000)
	if prob(pts[0].Index) != before {
		t.Fatal("snapshot probability function changed after subsequent Adds")
	}
}

// SnapshotFor routes a horizon to the ladder tier SelectTier picks, serves
// untiered samplers from the stream cache, and a Swap is visible to the
// next read — while writers and readers run concurrently (run with -race).
func TestSynchronizedSnapshotForAndSwap(t *testing.T) {
	build := func(seed uint64) *TieredReservoir {
		fresh, err := SamplerFactory(SamplerConfig{Policy: "variable", Lambda: 0.05, Capacity: 20, Tiers: 3, TierRatio: 4})
		if err != nil {
			t.Fatal(err)
		}
		s, err := fresh(xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return s.(*TieredReservoir)
	}
	s := NewSynchronized(build(1))

	var next uint64
	var order sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				order.Lock()
				pts := make([]stream.Point, 10)
				for j := range pts {
					next++
					pts[j] = stream.Point{Index: next, Values: []float64{1}, Weight: 1}
				}
				s.AddBatch(pts)
				order.Unlock()
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := uint64(i % 120)
				snap, tier := s.SnapshotFor(h)
				if want := s.Tiered().SelectTier(h); tier != want {
					t.Errorf("h=%d routed to tier %d, want %d", h, tier, want)
					return
				}
				if len(snap.Points) != len(snap.Probs) {
					t.Error("torn tier snapshot")
					return
				}
			}
		}()
	}
	wg.Wait()

	var processed uint64
	s.View(func(sm Sampler) { processed = sm.Processed() })
	if processed != 2000 {
		t.Fatalf("processed = %d, want 2000", processed)
	}
	if snap, _ := s.SnapshotFor(0); snap.T != 2000 {
		t.Fatalf("deepest tier snapshot at T=%d, want 2000", snap.T)
	}

	swapped := false
	s.Swap(build(2), func() { swapped = true })
	if !swapped {
		t.Fatal("Swap did not run its hook")
	}
	if snap, tier := s.SnapshotFor(0); snap.T != 0 || tier != 2 {
		t.Fatalf("after Swap: tier %d snapshot at T=%d, want tier 2 at T=0", tier, snap.T)
	}
	if s.AcquireSnapshot().T != 0 {
		t.Fatal("stream snapshot survived the Swap")
	}

	plain := NewSynchronized(build(3).Tier(0).(PersistentSampler))
	if snap, tier := plain.SnapshotFor(5); tier != -1 || snap != plain.AcquireSnapshot() {
		t.Fatalf("untiered SnapshotFor served tier %d", tier)
	}
}
