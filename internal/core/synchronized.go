package core

import (
	"sync"
	"sync/atomic"

	"biasedres/internal/stream"
)

// Synchronized wraps any Sampler with a mutex so one reservoir can be fed by
// a producer goroutine while analytical tasks (queries, classification)
// read consistent snapshots from others. Readers should use
// AcquireSnapshot/Sample/Snapshot rather than Points: the unlocked view
// would race with concurrent Adds.
//
// Reads go through a SnapshotCache: between mutations, AcquireSnapshot and
// everything built on it (the internal/query estimators) serve the same
// published Snapshot without taking the mutex at all. SnapshotFor routes a
// horizon to the covering tier when the wrapped sampler is a
// TieredReservoir, through that tier's own cache.
//
// It is the one locked-sampler type of the repository: the HTTP server and
// multi.Manager hold every stream in one. View and Update are the locked
// sections callers use to journal or checkpoint under the sampler lock, and
// Swap replaces the sampler on restore.
type Synchronized struct {
	mu    sync.Mutex
	s     Sampler
	cache SnapshotCache
	// tiered is s as a ladder (nil otherwise), published atomically so the
	// read path routes horizons without the mutex.
	tiered atomic.Pointer[TieredReservoir]
}

var _ Sampler = (*Synchronized)(nil)
var _ SnapshotProvider = (*Synchronized)(nil)

// NewSynchronized wraps s. The wrapped sampler must not be used directly
// afterwards.
func NewSynchronized(s Sampler) *Synchronized {
	c := &Synchronized{s: s}
	c.tiered.Store(asTiered(s))
	return c
}

func asTiered(s Sampler) *TieredReservoir {
	tr, _ := s.(*TieredReservoir)
	return tr
}

// View runs fn with the lock held. fn must not mutate the sampler or
// retain it beyond the call.
func (c *Synchronized) View(fn func(s Sampler)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.s)
}

// Update runs fn with the lock held and then invalidates the snapshot
// cache: the section for mutations that must be atomic with other work,
// such as journaling an applied batch so journal order is apply order.
func (c *Synchronized) Update(fn func(s Sampler)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn(c.s)
	c.cache.Invalidate()
}

// Swap replaces the wrapped sampler with next and invalidates every
// published snapshot. fn, when non-nil, runs in the same lock hold after
// the swap, so work tied to the new state (a journal cut) is atomic with
// it.
func (c *Synchronized) Swap(next Sampler, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s = next
	c.tiered.Store(asTiered(next))
	c.cache.Invalidate()
	if fn != nil {
		fn()
	}
}

// Tiered returns the wrapped sampler as a tier ladder, nil when it is not
// one. It takes no lock.
func (c *Synchronized) Tiered() *TieredReservoir { return c.tiered.Load() }

// SnapshotFor returns the snapshot that serves a query over the last h
// arrivals: for a tier ladder, the tier whose effective horizon 1/λ_i best
// covers h (TieredReservoir.SelectTier), served through that tier's cache;
// otherwise AcquireSnapshot. The second return is the tier index served,
// -1 for untiered samplers. Like AcquireSnapshot it is lock-free on a hit.
func (c *Synchronized) SnapshotFor(h uint64) (*Snapshot, int) {
	tr := c.Tiered()
	if tr == nil {
		return c.AcquireSnapshot(), -1
	}
	i := tr.SelectTier(h)
	return tr.TierCache(i).Acquire(func() *Snapshot {
		c.mu.Lock()
		defer c.mu.Unlock()
		return BuildSnapshot(tr.Tier(i))
	}), i
}

// Add implements Sampler.
func (c *Synchronized) Add(p stream.Point) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.s.Add(p)
	c.cache.Invalidate()
}

// AddBatch implements BatchSampler: the whole batch is applied under one
// lock acquisition, using the wrapped sampler's batch fast path when it has
// one. Concurrent readers observe either none or all of the batch.
func (c *Synchronized) AddBatch(pts []stream.Point) {
	c.mu.Lock()
	defer c.mu.Unlock()
	AddBatch(c.s, pts)
	c.cache.Invalidate()
}

// Points implements Sampler. Unlike the raw samplers it returns a copy, as
// a shared view would be racy by construction.
func (c *Synchronized) Points() []stream.Point { return c.Sample() }

// Sample implements Sampler.
func (c *Synchronized) Sample() []stream.Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Sample()
}

// Len implements Sampler.
func (c *Synchronized) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Len()
}

// Capacity implements Sampler.
func (c *Synchronized) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Capacity()
}

// Processed implements Sampler.
func (c *Synchronized) Processed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Processed()
}

// InclusionProb implements Sampler.
func (c *Synchronized) InclusionProb(r uint64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.InclusionProb(r)
}

// AcquireSnapshot implements SnapshotProvider. On a cache hit (no mutation
// since the last call) it is lock-free: two atomic loads, no mutex, no
// copying. On a miss it takes the mutex once, captures the wrapped sampler,
// and publishes the result for every subsequent reader of this version.
func (c *Synchronized) AcquireSnapshot() *Snapshot {
	return c.cache.Acquire(func() *Snapshot {
		c.mu.Lock()
		defer c.mu.Unlock()
		return BuildSnapshot(c.s)
	})
}

// SnapshotStats returns the snapshot cache's hit/miss/rebuild counters.
func (c *Synchronized) SnapshotStats() SnapshotCacheStats { return c.cache.Stats() }

// Snapshot atomically captures the sample together with the stream position
// it corresponds to and a probability function bound to that position, so
// estimators can work on a consistent state while Adds continue. It is a
// compatibility view over AcquireSnapshot; new code should use the
// Snapshot struct directly.
func (c *Synchronized) Snapshot() (pts []stream.Point, t uint64, prob func(r uint64) float64) {
	snap := c.AcquireSnapshot()
	probs := make(map[uint64]float64, len(snap.Points))
	for i, p := range snap.Points {
		probs[p.Index] = snap.Probs[i]
	}
	return snap.Points, snap.T, func(r uint64) float64 { return probs[r] }
}
