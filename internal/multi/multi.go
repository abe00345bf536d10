// Package multi manages biased reservoirs for many independent streams
// under one global memory budget — the deployment scenario Section 3 of the
// paper motivates its space-constrained algorithm with: "thousands of
// independent streams, and the amount of space allocated for each is
// relatively small".
//
// Each registered stream gets its own variable reservoir (Theorem 3.3), so
// every per-stream sample fills quickly and stays near capacity while
// respecting its allocated share of the global budget. The manager is safe
// for concurrent use: a typical deployment feeds each stream from its own
// goroutine.
package multi

import (
	"fmt"
	"sort"
	"sync"

	"biasedres/internal/core"
	"biasedres/internal/obs"
	"biasedres/internal/query"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Manager owns the global budget and the per-stream reservoirs.
type Manager struct {
	mu      sync.RWMutex
	budget  int
	used    int
	lambda  float64
	rng     *xrand.Source
	streams map[string]*entry
}

// entry is one registered stream: its sampler behind the shared locked
// wrapper (lock, snapshot cache and tier routing), plus the budget
// bookkeeping.
type entry struct {
	sm *core.Synchronized
	// kind names the sampler family the entry was built from (KindVariable
	// for tiered ladders, whose tiers are variable reservoirs).
	kind Kind
	// share is the total slot charge against the budget (for tiered
	// streams: per-tier share × tiers).
	share int
}

// Kind names a sampler family the manager can build for a stream: one of
// the core sampler registry's policies. Register picks KindVariable,
// RegisterKind picks explicitly.
type Kind string

const (
	// KindVariable is Aggarwal's space-constrained scheme (Theorem 3.3):
	// approximate decay, fills quickly, stays near capacity.
	KindVariable Kind = "variable"
	// KindTTBS is Hentschel-Haas-Tian targeted-size time-biased sampling:
	// exact decay, unbounded (target-centered) sample size.
	KindTTBS Kind = "ttbs"
	// KindRTBS is Hentschel-Haas-Tian reservoir-based time-biased
	// sampling: exact decay within a hard item bound.
	KindRTBS Kind = "rtbs"
)

// kinds are the core policies the manager offers, sorted. Each is built
// from core.SamplerFactory with the manager's λ and the stream's share as
// capacity.
var kinds = []Kind{KindRTBS, KindTTBS, KindVariable}

// Kinds returns the registered sampler-family names, sorted.
func Kinds() []Kind { return append([]Kind(nil), kinds...) }

func knownKind(k Kind) bool {
	for _, kk := range kinds {
		if kk == k {
			return true
		}
	}
	return false
}

// NewManager returns a manager distributing `budget` total reservoir slots
// across streams, each stream biased with rate lambda. Seed drives the
// independent per-stream random sources.
func NewManager(budget int, lambda float64, seed uint64) (*Manager, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("multi: budget must be positive, got %d", budget)
	}
	if !(lambda > 0) {
		return nil, fmt.Errorf("multi: lambda must be positive, got %v", lambda)
	}
	return &Manager{
		budget:  budget,
		lambda:  lambda,
		rng:     xrand.New(seed),
		streams: make(map[string]*entry),
	}, nil
}

// Register allocates `share` reservoir slots to a new KindVariable stream.
// It is RegisterKind with the manager's historical default family.
func (m *Manager) Register(name string, share int) error {
	return m.RegisterKind(name, KindVariable, share)
}

// RegisterKind allocates `share` reservoir slots to a new stream sampled by
// the named family. For KindVariable the share is limited by the bias
// function's maximum requirement ⌊1/λ⌋ (a larger reservoir could not
// satisfy the bias, Corollary 2.1) — the same rule the samplers themselves
// enforce, so the manager can never admit a share its reservoir constructor
// would reject. It returns an error when the kind is unknown, the name is
// taken, the share is not positive, or the remaining budget is
// insufficient.
func (m *Manager) RegisterKind(name string, kind Kind, share int) error {
	if !knownKind(kind) {
		return fmt.Errorf("multi: unknown sampler kind %q (have %v)", kind, Kinds())
	}
	if share <= 0 {
		return fmt.Errorf("multi: share must be positive, got %d", share)
	}
	// T-TBS and R-TBS constructors enforce their own parameter bounds.
	if kind == KindVariable {
		if err := m.checkShare(share); err != nil {
			return err
		}
	}
	return m.register(name, kind, share, core.SamplerConfig{Policy: string(kind), Lambda: m.lambda, Capacity: share})
}

// checkShare applies the ⌊1/λ⌋ maximum-requirement cap (Corollary 2.1).
func (m *Manager) checkShare(share int) error {
	maxShare, err := core.ReservoirCapacity(m.lambda)
	if err != nil {
		return fmt.Errorf("multi: %w", err)
	}
	if share > maxShare {
		return fmt.Errorf("multi: share %d exceeds the maximum requirement 1/λ = %d", share, maxShare)
	}
	return nil
}

// register builds cfg's sampler and charges total slots for it.
func (m *Manager) register(name string, kind Kind, total int, cfg core.SamplerConfig) error {
	fresh, err := core.SamplerFactory(cfg)
	if err != nil {
		return fmt.Errorf("multi: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.streams[name]; ok {
		return fmt.Errorf("multi: stream %q already registered", name)
	}
	if m.used+total > m.budget {
		return fmt.Errorf("multi: budget exhausted: %d used + %d requested > %d total", m.used, total, m.budget)
	}
	sampler, err := fresh(m.rng.Split())
	if err != nil {
		return fmt.Errorf("multi: creating %s reservoir for %q: %w", kind, name, err)
	}
	m.streams[name] = &entry{sm: core.NewSynchronized(sampler), kind: kind, share: total}
	m.used += total
	return nil
}

// RegisterTiered allocates a multi-horizon ladder to a new stream: `tiers`
// variable reservoirs of `share` slots each at geometrically-spaced bias
// rates (tier i runs λ/ratio^i; ratio 0 means the default 8). The full
// ladder — share × tiers slots — is charged against the global budget.
// Horizon-carrying reads route through SnapshotFor to the tier covering
// the horizon.
func (m *Manager) RegisterTiered(name string, share, tiers int, ratio float64) error {
	if share <= 0 {
		return fmt.Errorf("multi: share must be positive, got %d", share)
	}
	if tiers < 2 {
		return fmt.Errorf("multi: tiered registration needs >= 2 tiers, got %d", tiers)
	}
	if ratio == 0 {
		ratio = core.DefaultTierRatio
	}
	if !(ratio > 1) {
		return fmt.Errorf("multi: tier ratio must be > 1, got %v", ratio)
	}
	// Tier 0 runs the largest λ and therefore the tightest capacity cap
	// ⌊1/λ⌋; deeper tiers only relax it, so one check covers the ladder.
	if err := m.checkShare(share); err != nil {
		return err
	}
	return m.register(name, KindVariable, share*tiers, core.SamplerConfig{
		Policy: string(KindVariable), Lambda: m.lambda, Capacity: share, Tiers: tiers, TierRatio: ratio})
}

// RegisterEven registers all names with equal shares of the whole budget
// (floor division; a remainder stays unallocated).
func (m *Manager) RegisterEven(names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("multi: no stream names")
	}
	share := m.budget / len(names)
	if share == 0 {
		return fmt.Errorf("multi: budget %d cannot cover %d streams", m.budget, len(names))
	}
	maxShare, err := core.ReservoirCapacity(m.lambda)
	if err != nil {
		return fmt.Errorf("multi: %w", err)
	}
	if share > maxShare {
		share = maxShare
	}
	for _, name := range names {
		if err := m.Register(name, share); err != nil {
			return err
		}
	}
	return nil
}

// Unregister removes a stream and returns its share to the budget.
func (m *Manager) Unregister(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.streams[name]
	if !ok {
		return fmt.Errorf("multi: stream %q not registered", name)
	}
	delete(m.streams, name)
	m.used -= e.share
	return nil
}

// lookup returns the named stream's entry.
func (m *Manager) lookup(name string) (*entry, error) {
	m.mu.RLock()
	e, ok := m.streams[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("multi: stream %q not registered", name)
	}
	return e, nil
}

// Add feeds one point to the named stream's reservoir.
func (m *Manager) Add(name string, p stream.Point) error {
	e, err := m.lookup(name)
	if err != nil {
		return err
	}
	e.sm.Add(p)
	return nil
}

// AddBatch feeds pts to the named stream's reservoir as consecutive
// arrivals under one lock acquisition, using the sampler's batch fast path
// (core.AddBatch) when it has one. For the manager's biased samplers this
// amortizes both the per-point lock traffic and — via geometric admission
// skips — the random draws, so it is the preferred ingest call when points
// arrive in groups.
func (m *Manager) AddBatch(name string, pts []stream.Point) error {
	e, err := m.lookup(name)
	if err != nil {
		return err
	}
	e.sm.AddBatch(pts)
	return nil
}

// Sample returns the named stream's current reservoir as a read-only
// view of its immutable snapshot — lock-free and copy-free when the
// snapshot cache is warm. Callers must not modify the returned slice.
func (m *Manager) Sample(name string) ([]stream.Point, error) {
	snap, err := m.Snapshot(name)
	if err != nil {
		return nil, err
	}
	return snap.Points, nil
}

// With evaluates fn against the named stream's sampler while holding its
// lock — the safe way to run any estimator against a concurrently fed
// reservoir. fn must not retain the sampler beyond the call.
func (m *Manager) With(name string, fn func(core.Sampler) error) error {
	e, err := m.lookup(name)
	if err != nil {
		return err
	}
	e.sm.View(func(s core.Sampler) { err = fn(s) })
	return err
}

// Snapshot returns the named stream's current sampler snapshot — lock-free
// when nothing mutated since the last read. Callers can evaluate any
// number of query kernels (query.EstimateOn and friends) against it
// without blocking the stream's ingest.
func (m *Manager) Snapshot(name string) (*core.Snapshot, error) {
	e, err := m.lookup(name)
	if err != nil {
		return nil, err
	}
	return e.sm.AcquireSnapshot(), nil
}

// SnapshotFor returns the snapshot that should serve a query over the last
// h arrivals: for tiered streams, the tier whose effective horizon 1/λ_i
// best covers h (served through that tier's own snapshot cache); for plain
// streams it is Snapshot. The second return is the tier index served, -1
// for untiered streams.
func (m *Manager) SnapshotFor(name string, h uint64) (*core.Snapshot, int, error) {
	e, err := m.lookup(name)
	if err != nil {
		return nil, -1, err
	}
	snap, tier := e.sm.SnapshotFor(h)
	return snap, tier, nil
}

// Average estimates the per-dimension average of the named stream's last h
// arrivals (see query.HorizonAverage) in one fused pass over the stream's
// snapshot — the best-covering tier's snapshot when the stream is tiered.
func (m *Manager) Average(name string, h uint64, dim int) ([]float64, error) {
	snap, _, err := m.SnapshotFor(name, h)
	if err != nil {
		return nil, err
	}
	return query.HorizonAverageOn(snap, h, dim)
}

// ClassDistribution estimates the fractional class distribution of the
// named stream's last h arrivals, tier-routed like Average.
func (m *Manager) ClassDistribution(name string, h uint64) (map[int]float64, error) {
	snap, _, err := m.SnapshotFor(name, h)
	if err != nil {
		return nil, err
	}
	return query.ClassDistributionOn(snap, h)
}

// Estimate evaluates an arbitrary linear query against the named stream.
func (m *Manager) Estimate(name string, q query.Linear) (float64, error) {
	snap, err := m.Snapshot(name)
	if err != nil {
		return 0, err
	}
	return query.EstimateOn(snap, q), nil
}

// Stats describes one stream's reservoir state.
type Stats struct {
	Name      string
	Kind      Kind
	Share     int
	Len       int
	Processed uint64
	PIn       float64
	Fill      float64
	// Snapshot cache counters (see core.SnapshotCacheStats).
	SnapshotHits     uint64
	SnapshotMisses   uint64
	SnapshotRebuilds uint64
}

// StreamStats returns per-stream reservoir statistics, sorted by name.
func (m *Manager) StreamStats() []Stats {
	m.mu.RLock()
	names := make([]string, 0, len(m.streams))
	for name := range m.streams {
		names = append(names, name)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	out := make([]Stats, 0, len(names))
	for _, name := range names {
		e, err := m.lookup(name)
		if err != nil {
			continue // unregistered since the listing
		}
		st := Stats{Name: name, Kind: e.kind, Share: e.share}
		e.sm.View(func(s core.Sampler) {
			st.Len, st.Processed, st.Fill = s.Len(), s.Processed(), core.Fill(s)
			st.PIn = 1
			if p, ok := s.(interface{ PIn() float64 }); ok {
				st.PIn = p.PIn()
			}
		})
		cs := e.sm.SnapshotStats()
		st.SnapshotHits, st.SnapshotMisses, st.SnapshotRebuilds = cs.Hits, cs.Misses, cs.Rebuilds
		out = append(out, st)
	}
	return out
}

// Collect implements obs.Collector: registering the manager on an
// obs.Registry exports the global budget and every stream's reservoir
// state at one scrape point — the "thousands of independent streams"
// deployment stays observable through a single /metrics endpoint.
func (m *Manager) Collect() []obs.Family {
	m.mu.RLock()
	budget, used, streams := m.budget, m.used, len(m.streams)
	m.mu.RUnlock()

	out := []obs.Family{
		{Name: "biasedres_multi_budget_slots", Type: "gauge",
			Help:    "Total reservoir slots the manager may allocate.",
			Samples: []obs.Sample{{Value: float64(budget)}}},
		{Name: "biasedres_multi_used_slots", Type: "gauge",
			Help:    "Reservoir slots currently allocated to streams.",
			Samples: []obs.Sample{{Value: float64(used)}}},
		{Name: "biasedres_multi_streams", Type: "gauge",
			Help:    "Streams currently registered with the manager.",
			Samples: []obs.Sample{{Value: float64(streams)}}},
	}

	stats := m.StreamStats()
	if len(stats) == 0 {
		return out
	}
	share := obs.Family{Name: "biasedres_multi_stream_share_slots", Type: "gauge",
		Help: "Reservoir slots allocated to the stream."}
	size := obs.Family{Name: "biasedres_multi_stream_reservoir_size", Type: "gauge",
		Help: "Points currently resident in the stream's reservoir."}
	processed := obs.Family{Name: "biasedres_multi_stream_processed_total", Type: "counter",
		Help: "Stream points processed by the stream's sampler."}
	pin := obs.Family{Name: "biasedres_multi_stream_p_in", Type: "gauge",
		Help: "Current insertion probability p_in of the stream's sampler."}
	fill := obs.Family{Name: "biasedres_multi_stream_fill_fraction", Type: "gauge",
		Help: "Fill fraction F(t) of the stream's reservoir."}
	snapHits := obs.Family{Name: "biasedres_snapshot_cache_hits_total", Type: "counter",
		Help: "Snapshot reads served lock-free from the published snapshot."}
	snapMisses := obs.Family{Name: "biasedres_snapshot_cache_misses_total", Type: "counter",
		Help: "Snapshot reads that found the published snapshot stale or absent."}
	snapRebuilds := obs.Family{Name: "biasedres_snapshot_cache_rebuilds_total", Type: "counter",
		Help: "Snapshots rebuilt under the sampler lock (at most one per mutation)."}
	for _, st := range stats {
		label := []obs.Label{{Key: "stream", Value: st.Name}}
		share.Samples = append(share.Samples, obs.Sample{Labels: label, Value: float64(st.Share)})
		size.Samples = append(size.Samples, obs.Sample{Labels: label, Value: float64(st.Len)})
		processed.Samples = append(processed.Samples, obs.Sample{Labels: label, Value: float64(st.Processed)})
		pin.Samples = append(pin.Samples, obs.Sample{Labels: label, Value: st.PIn})
		fill.Samples = append(fill.Samples, obs.Sample{Labels: label, Value: st.Fill})
		snapHits.Samples = append(snapHits.Samples, obs.Sample{Labels: label, Value: float64(st.SnapshotHits)})
		snapMisses.Samples = append(snapMisses.Samples, obs.Sample{Labels: label, Value: float64(st.SnapshotMisses)})
		snapRebuilds.Samples = append(snapRebuilds.Samples, obs.Sample{Labels: label, Value: float64(st.SnapshotRebuilds)})
	}
	return append(out, share, size, processed, pin, fill, snapHits, snapMisses, snapRebuilds)
}

// Budget returns the total slot budget.
func (m *Manager) Budget() int { return m.budget }

// Used returns the number of allocated slots.
func (m *Manager) Used() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.used
}

// Remaining returns the unallocated budget.
func (m *Manager) Remaining() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.budget - m.used
}

// Len returns the number of registered streams.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.streams)
}
