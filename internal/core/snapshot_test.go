package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

func TestBuildSnapshotBasics(t *testing.T) {
	b, _ := NewBiasedReservoir(0.1, xrand.New(1))
	feed(b, 100)
	snap := BuildSnapshot(b)
	if snap.T != 100 {
		t.Fatalf("snapshot T = %d, want 100", snap.T)
	}
	if snap.Cap != b.Capacity() {
		t.Fatalf("snapshot Cap = %d, want %d", snap.Cap, b.Capacity())
	}
	if snap.Len() != b.Len() || len(snap.Probs) != len(snap.Points) {
		t.Fatalf("snapshot sizes: Len=%d Probs=%d, sampler Len=%d",
			snap.Len(), len(snap.Probs), b.Len())
	}
	if want := float64(b.Len()) / float64(b.Capacity()); snap.Fill() != want {
		t.Fatalf("snapshot Fill = %v, want %v", snap.Fill(), want)
	}
	for i, p := range snap.Points {
		if snap.Probs[i] != b.InclusionProb(p.Index) {
			t.Fatalf("Probs[%d] = %v, want %v for index %d",
				i, snap.Probs[i], b.InclusionProb(p.Index), p.Index)
		}
	}
	if snap.Version != b.Version() {
		t.Fatalf("snapshot Version = %d, sampler Version = %d", snap.Version, b.Version())
	}
}

func TestVersionCountsMutations(t *testing.T) {
	samplers := map[string]VersionedSampler{}
	b, _ := NewBiasedReservoir(0.1, xrand.New(1))
	samplers["biased"] = b
	v, _ := NewVariableReservoir(0.01, 20, xrand.New(2))
	samplers["variable"] = v
	u, _ := NewUnbiasedReservoir(20, xrand.New(3))
	samplers["unbiased"] = u
	s, _ := NewSkipReservoir(20, xrand.New(4))
	samplers["skip"] = s
	z, _ := NewZReservoir(20, xrand.New(5))
	samplers["algz"] = z
	w, _ := NewWindowReservoir(100, 20, xrand.New(6))
	samplers["window"] = w

	for name, s := range samplers {
		v0 := s.Version()
		s.Add(stream.Point{Index: 1, Values: []float64{1}, Weight: 1})
		if s.Version() == v0 {
			t.Errorf("%s: Add did not bump version", name)
		}
		v1 := s.Version()
		AddBatch(s, []stream.Point{
			{Index: 2, Values: []float64{2}, Weight: 1},
			{Index: 3, Values: []float64{3}, Weight: 1},
		})
		if s.Version() == v1 {
			t.Errorf("%s: AddBatch did not bump version", name)
		}
	}
}

func TestVersionBumpsOnRestore(t *testing.T) {
	b, _ := NewBiasedReservoir(0.1, xrand.New(1))
	feed(b, 50)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := NewBiasedReservoir(0.1, xrand.New(1))
	v0 := restored.Version()
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Version() == v0 {
		t.Fatal("UnmarshalBinary did not bump version: a cached snapshot would serve stale state")
	}
}

func TestSnapshotCacheHitMissInvalidate(t *testing.T) {
	var c SnapshotCache
	builds := 0
	build := func() *Snapshot {
		builds++
		return &Snapshot{T: uint64(builds)}
	}
	if c.Peek() != nil {
		t.Fatal("Peek on empty cache should be nil")
	}
	s1 := c.Acquire(build)
	s2 := c.Acquire(build)
	if builds != 1 || s1 != s2 {
		t.Fatalf("second Acquire rebuilt: builds=%d", builds)
	}
	if c.Peek() != s1 {
		t.Fatal("Peek should return the published snapshot")
	}
	c.Invalidate()
	s3 := c.Acquire(build)
	if builds != 2 || s3 == s1 {
		t.Fatalf("Acquire after Invalidate did not rebuild: builds=%d", builds)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Rebuilds != 2 {
		t.Fatalf("stats = %+v, want hits=1 misses=2 rebuilds=2", st)
	}
}

// countingSampler wraps a sampler and counts every method call that the
// snapshot build path can make. Synchronized only touches the inner
// sampler while holding its mutex, so zero inner calls during a stretch
// of reads proves those reads never took the lock.
type countingSampler struct {
	inner Sampler
	calls atomic.Int64
}

func (c *countingSampler) Add(p stream.Point)     { c.calls.Add(1); c.inner.Add(p) }
func (c *countingSampler) Sample() []stream.Point { c.calls.Add(1); return c.inner.Sample() }
func (c *countingSampler) Points() []stream.Point { c.calls.Add(1); return c.inner.Points() }
func (c *countingSampler) Len() int               { c.calls.Add(1); return c.inner.Len() }
func (c *countingSampler) Capacity() int          { c.calls.Add(1); return c.inner.Capacity() }
func (c *countingSampler) Processed() uint64      { c.calls.Add(1); return c.inner.Processed() }
func (c *countingSampler) InclusionProb(r uint64) float64 {
	c.calls.Add(1)
	return c.inner.InclusionProb(r)
}

func TestSnapshotCacheHitPathIsLockFree(t *testing.T) {
	b, _ := NewBiasedReservoir(0.05, xrand.New(7))
	cs := &countingSampler{inner: b}
	sw := NewSynchronized(cs)
	feed(sw, 200)

	// Warm the cache, then confirm repeated reads never reach the inner
	// sampler (and therefore never enter the mutex-guarded build closure).
	warm := sw.AcquireSnapshot()
	before := cs.calls.Load()
	for i := 0; i < 1000; i++ {
		snap := sw.AcquireSnapshot()
		if snap != warm {
			t.Fatal("cache-hit Acquire returned a different snapshot")
		}
	}
	if got := cs.calls.Load(); got != before {
		t.Fatalf("hit path made %d sampler calls; want 0 (lock-free reads)", got-before)
	}
	st := sw.SnapshotStats()
	if st.Hits < 1000 {
		t.Fatalf("expected >=1000 cache hits, got %+v", st)
	}

	// A mutation invalidates; the next read rebuilds exactly once.
	sw.Add(stream.Point{Index: 201, Values: []float64{1}, Weight: 1})
	rebuilds := sw.SnapshotStats().Rebuilds
	_ = sw.AcquireSnapshot()
	_ = sw.AcquireSnapshot()
	if got := sw.SnapshotStats().Rebuilds; got != rebuilds+1 {
		t.Fatalf("rebuilds after one mutation = %d, want %d", got, rebuilds+1)
	}
}

// TestSnapshotHammer races writers against snapshot readers and checks
// every snapshot is internally consistent: probabilities were computed
// against the snapshot's own stream position, never a torn mix of two
// states. Run with -race.
func TestSnapshotHammer(t *testing.T) {
	const lambda = 0.01
	b, _ := NewBiasedReservoir(lambda, xrand.New(11))
	s := NewSynchronized(b)

	const writers, batches, batchLen = 4, 200, 25
	// Samplers require points in arrival order, so a writer assigns its
	// indices and applies its batch as one step; otherwise a batch with
	// later indices could land first and the reservoir would legitimately
	// hold an index above its T.
	var order sync.Mutex
	var next uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				order.Lock()
				pts := make([]stream.Point, batchLen)
				for j := range pts {
					next++
					pts[j] = stream.Point{Index: next, Values: []float64{float64(next)}, Weight: 1}
				}
				s.AddBatch(pts)
				order.Unlock()
			}
		}()
	}

	var readErr atomic.Value
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.AcquireSnapshot()
				if len(snap.Probs) != len(snap.Points) {
					readErr.Store("torn snapshot: len(Probs) != len(Points)")
					return
				}
				for i, p := range snap.Points {
					if p.Index == 0 || p.Index > snap.T {
						readErr.Store("snapshot holds a point newer than its own T")
						return
					}
					// NewBiasedReservoir has p_in = 1, so the inclusion
					// probability is exactly e^{-λ(T-r)} for the
					// snapshot's T. Any other value means Probs and T
					// come from different reservoir states.
					want := math.Exp(-lambda * float64(snap.T-p.Index))
					if snap.Probs[i] != want {
						readErr.Store("snapshot probability not computed against its own T")
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	if msg := readErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	if got := s.Processed(); got != writers*batches*batchLen {
		t.Fatalf("processed = %d, want %d", got, writers*batches*batchLen)
	}
	// After the dust settles the cached snapshot must reflect the final state.
	snap := s.AcquireSnapshot()
	if snap.T != writers*batches*batchLen {
		t.Fatalf("final snapshot T = %d, want %d", snap.T, writers*batches*batchLen)
	}
}
