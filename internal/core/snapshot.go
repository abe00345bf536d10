package core

import (
	"sync"
	"sync/atomic"

	"biasedres/internal/stream"
)

// Snapshot is an immutable point-in-time view of a sampler: the reservoir
// contents, the stream position t they correspond to, and each resident's
// inclusion probability p(r,t) materialized once at capture time. Because a
// snapshot never changes after construction, any number of readers can share
// it — including its backing arrays — without copies or locks; estimators in
// internal/query evaluate against snapshots instead of re-locking the
// sampler per statistic.
//
// Points[i] and Probs[i] are index-aligned. The Point values (and their
// Values slices) are shared with whatever produced them and must be treated
// as read-only, exactly like the Sampler.Points contract.
type Snapshot struct {
	// Version is the producing sampler's mutation counter at capture time
	// (see VersionedSampler); 0 when the sampler does not expose one.
	Version uint64
	// T is the stream position: the number of points the sampler had
	// processed when the snapshot was taken.
	T uint64
	// Cap is the sampler's reservoir capacity.
	Cap int
	// Points is the reservoir contents at position T.
	Points []stream.Point
	// Probs[i] is InclusionProb(Points[i].Index) evaluated at position T.
	Probs []float64

	// gen is the owning SnapshotCache's generation at build time; private
	// to the cache's validity check.
	gen uint64
}

// Len returns the number of points in the snapshot.
func (s *Snapshot) Len() int { return len(s.Points) }

// Fill returns the fill fraction F(t) in [0,1] at capture time.
func (s *Snapshot) Fill() float64 {
	if s.Cap <= 0 {
		return 0
	}
	return float64(len(s.Points)) / float64(s.Cap)
}

// VersionedSampler is a Sampler that counts its mutations. Every sampler in
// this package bumps its version on Add/AddBatch/AddAt and on restore, so
// snapshot layers can tell "unchanged since last read" from "must rebuild"
// without inspecting reservoir state.
type VersionedSampler interface {
	Sampler
	// Version returns the mutation counter. It increases on every
	// state-changing call; the absolute value is meaningless.
	Version() uint64
}

// SnapshotProvider is implemented by wrappers that own a snapshot cache
// (Synchronized); SnapshotOf uses it to serve cache hits lock-free.
type SnapshotProvider interface {
	AcquireSnapshot() *Snapshot
}

// BuildSnapshot captures s into a fresh Snapshot: one copy of the
// reservoir, one InclusionProb evaluation per resident. The caller must
// guarantee s is quiescent for the duration (hold the lock that guards its
// mutations); the returned snapshot is immutable and safe to share.
func BuildSnapshot(s Sampler) *Snapshot {
	var ver uint64
	if vs, ok := s.(VersionedSampler); ok {
		ver = vs.Version()
	}
	pts := s.Sample()
	probs := make([]float64, len(pts))
	for i := range pts {
		probs[i] = s.InclusionProb(pts[i].Index)
	}
	return &Snapshot{
		Version: ver,
		T:       s.Processed(),
		Cap:     s.Capacity(),
		Points:  pts,
		Probs:   probs,
	}
}

// SnapshotOf returns a snapshot of s: through the sampler's own cache when
// it has one (lock-free on a cache hit), otherwise by building a fresh one.
// It is how a caller holding a Sampler reaches the internal/query kernels,
// which take only snapshots.
func SnapshotOf(s Sampler) *Snapshot {
	if sp, ok := s.(SnapshotProvider); ok {
		return sp.AcquireSnapshot()
	}
	return BuildSnapshot(s)
}

// SnapshotCacheStats is a point-in-time read of a cache's counters.
type SnapshotCacheStats struct {
	// Hits counts Acquire calls served the published snapshot without
	// building (the lock-free path).
	Hits uint64
	// Misses counts Acquire calls that found the published snapshot
	// stale or absent.
	Misses uint64
	// Rebuilds counts snapshots actually built; at most one per
	// generation — concurrent misses coalesce behind one build.
	Rebuilds uint64
}

// SnapshotCache is the copy-on-write publication point of the read path:
// writers bump a generation counter after every mutation (Invalidate), and
// the first reader of a generation builds a Snapshot which is then served
// to every subsequent reader of that generation via an atomic pointer —
// zero locks, zero sampler calls, zero copies on the hit path. The zero
// value is ready to use.
type SnapshotCache struct {
	gen     atomic.Uint64
	cur     atomic.Pointer[Snapshot]
	buildMu sync.Mutex

	hits     atomic.Uint64
	misses   atomic.Uint64
	rebuilds atomic.Uint64
}

// Invalidate marks the published snapshot stale. Callers invoke it after
// every sampler mutation (typically just before releasing the write lock);
// it is a single atomic add and never blocks.
func (c *SnapshotCache) Invalidate() { c.gen.Add(1) }

// Acquire returns the current snapshot, invoking build only when the
// published one predates the latest Invalidate. build must capture the
// sampler coherently — i.e. run under the same lock its mutators hold —
// and is serialized: concurrent readers of a stale generation wait for one
// build rather than each building their own.
//
// The generation is read before build runs, so a mutation racing with the
// build can at worst label fresh state with an older generation — the next
// Acquire then rebuilds. A stale snapshot is never served as current.
func (c *SnapshotCache) Acquire(build func() *Snapshot) *Snapshot {
	gen := c.gen.Load()
	if snap := c.cur.Load(); snap != nil && snap.gen == gen {
		c.hits.Add(1)
		return snap
	}
	c.misses.Add(1)
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	gen = c.gen.Load()
	if snap := c.cur.Load(); snap != nil && snap.gen == gen {
		// Another reader rebuilt while we waited; its snapshot is current.
		return snap
	}
	c.rebuilds.Add(1)
	snap := build()
	snap.gen = gen
	c.cur.Store(snap)
	return snap
}

// Peek returns the currently published snapshot without validating or
// rebuilding it; nil when nothing has been published yet. Scrape-time
// collectors use it to report snapshot size without forcing a build.
func (c *SnapshotCache) Peek() *Snapshot { return c.cur.Load() }

// Stats returns the cache's hit/miss/rebuild counters.
func (c *SnapshotCache) Stats() SnapshotCacheStats {
	return SnapshotCacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Rebuilds: c.rebuilds.Load(),
	}
}
