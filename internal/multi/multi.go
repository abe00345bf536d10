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
	"slices"
	"sync"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/obs"
	"biasedres/internal/query"
	"biasedres/internal/registry"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Manager owns the global budget and the per-stream reservoirs. The
// streams live in a registry.Registry, the daemon's stream table, which
// charges each one its config's Slots against the budget.
type Manager struct {
	budget int
	lambda float64
	seedMu sync.Mutex // guards rng
	rng    *xrand.Source
	reg    *registry.Registry[*entry]
}

// entry is one registered stream: its sampler behind the shared locked
// wrapper (lock, snapshot cache and tier routing) and the configuration
// it was built from, whose Slots are its charge against the budget.
type entry struct {
	name string
	sm   *core.Synchronized
	cfg  core.SamplerConfig
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
		budget: budget,
		lambda: lambda,
		rng:    xrand.New(seed),
		reg:    registry.New[*entry](budget),
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
	return m.register(name, core.SamplerConfig{Policy: string(kind), Lambda: m.lambda, Capacity: share}, nil)
}

// register is the one path by which a stream joins the manager, from
// every Register variant and LoadFrom. It checks cfg against the manager,
// charges cfg.Slots() against the budget and builds the sampler outside
// the registry lock, on a seed from m.rng. A stream loaded from a fleet
// record (from non-nil) is restored from its snapshot, which carries its
// own generator state, so it builds on a throwaway source and streams
// registered after a load still draw the same seeds from m.rng.
func (m *Manager) register(name string, cfg core.SamplerConfig, from *durable.Checkpoint) error {
	kind := Kind(cfg.Policy)
	maxShare, err := core.ReservoirCapacity(m.lambda)
	switch {
	case !slices.Contains(kinds, kind):
		return fmt.Errorf("multi: unknown sampler kind %q (have %v)", kind, Kinds())
	case cfg.Capacity <= 0:
		return fmt.Errorf("multi: share must be positive, got %d", cfg.Capacity)
	case cfg.Lambda != m.lambda:
		return fmt.Errorf("multi: stream %q runs λ %v, the manager %v", name, cfg.Lambda, m.lambda)
	case cfg.Tiers > 1 && kind != KindVariable:
		return fmt.Errorf("multi: stream %q is tiered but has kind %q", name, kind)
	// T-TBS and R-TBS constructors enforce their own parameter bounds. Tier
	// 0 of a ladder runs the largest λ and so the tightest cap.
	case kind == KindVariable && err != nil:
		return fmt.Errorf("multi: %w", err)
	case kind == KindVariable && cfg.Capacity > maxShare:
		return fmt.Errorf("multi: share %d exceeds the maximum requirement 1/λ = %d", cfg.Capacity, maxShare)
	}
	fresh, err := core.SamplerFactory(cfg)
	if err != nil {
		return fmt.Errorf("multi: %w", err)
	}
	if err := m.reg.Reserve(name, cfg.Slots()); err != nil {
		return fmt.Errorf("multi: %w", err)
	}
	rng := xrand.New(0)
	if from == nil {
		m.seedMu.Lock()
		rng = m.rng.Split()
		m.seedMu.Unlock()
	}
	sampler, err := fresh(rng)
	if err == nil && from != nil {
		err = core.Restore(sampler, from.Snapshot)
	}
	if err != nil {
		m.reg.Abandon(name)
		return fmt.Errorf("multi: stream %q: %w", name, err)
	}
	// Nothing closes the manager's registry, so the publish cannot fail.
	return m.reg.Publish(name, &entry{name: name, sm: core.NewSynchronized(sampler), cfg: cfg})
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
	return m.register(name, core.SamplerConfig{
		Policy: string(KindVariable), Lambda: m.lambda, Capacity: share, Tiers: tiers, TierRatio: ratio}, nil)
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
	if _, ok := m.reg.Remove(name, false); !ok {
		return fmt.Errorf("multi: stream %q not registered", name)
	}
	return nil
}

// stream returns the named stream's sampler.
func (m *Manager) stream(name string) (*core.Synchronized, error) {
	e, ok := m.reg.Get(name)
	if !ok {
		return nil, fmt.Errorf("multi: stream %q not registered", name)
	}
	return e.sm, nil
}

// Add feeds one point to the named stream's reservoir.
func (m *Manager) Add(name string, p stream.Point) error {
	sm, err := m.stream(name)
	if err != nil {
		return err
	}
	sm.Add(p)
	return nil
}

// AddBatch feeds pts to the named stream's reservoir as consecutive
// arrivals under one lock acquisition, using the sampler's batch fast path
// (core.AddBatch) when it has one. For the manager's biased samplers this
// amortizes both the per-point lock traffic and — via geometric admission
// skips — the random draws, so it is the preferred ingest call when points
// arrive in groups.
func (m *Manager) AddBatch(name string, pts []stream.Point) error {
	sm, err := m.stream(name)
	if err != nil {
		return err
	}
	sm.AddBatch(pts)
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
	sm, err := m.stream(name)
	if err != nil {
		return err
	}
	sm.View(func(s core.Sampler) { err = fn(s) })
	return err
}

// Snapshot returns the named stream's current sampler snapshot — lock-free
// when nothing mutated since the last read. Callers can evaluate any
// number of query kernels (query.EstimateOn and friends) against it
// without blocking the stream's ingest.
func (m *Manager) Snapshot(name string) (*core.Snapshot, error) {
	sm, err := m.stream(name)
	if err != nil {
		return nil, err
	}
	return sm.AcquireSnapshot(), nil
}

// SnapshotFor returns the snapshot that should serve a query over the last
// h arrivals: for tiered streams, the tier whose effective horizon 1/λ_i
// best covers h (served through that tier's own snapshot cache); for plain
// streams it is Snapshot. The second return is the tier index served, -1
// for untiered streams.
func (m *Manager) SnapshotFor(name string, h uint64) (*core.Snapshot, int, error) {
	sm, err := m.stream(name)
	if err != nil {
		return nil, -1, err
	}
	snap, tier := sm.SnapshotFor(h)
	return snap, tier, nil
}

// Average estimates the per-dimension average of the named stream's last h
// arrivals (see query.Accum.Average) in one fused pass over the stream's
// snapshot — the best-covering tier's snapshot when the stream is tiered.
func (m *Manager) Average(name string, h uint64, dim int) ([]float64, error) {
	snap, _, err := m.SnapshotFor(name, h)
	if err != nil {
		return nil, err
	}
	return query.Accumulate(snap, h, dim, nil).Average()
}

// ClassDistribution estimates the fractional class distribution of the
// named stream's last h arrivals, tier-routed like Average.
func (m *Manager) ClassDistribution(name string, h uint64) (map[int]float64, error) {
	snap, _, err := m.SnapshotFor(name, h)
	if err != nil {
		return nil, err
	}
	return query.Accumulate(snap, h, 0, nil).Distribution()
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
	list := m.reg.List()
	out := make([]Stats, 0, len(list))
	for _, e := range list {
		st := Stats{Name: e.name, Kind: Kind(e.cfg.Policy), Share: e.cfg.Slots()}
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
// deployment stays observable through a single /metrics endpoint. The
// per-stream families are core.StreamFamilies under biasedres_multi_.
func (m *Manager) Collect() []obs.Family {
	used := m.reg.Used()
	list := m.reg.List()
	out := []obs.Family{
		{Name: "biasedres_multi_budget_slots", Type: "gauge",
			Help:    "Total reservoir slots the manager may allocate.",
			Samples: []obs.Sample{{Value: float64(m.budget)}}},
		{Name: "biasedres_multi_used_slots", Type: "gauge",
			Help:    "Reservoir slots currently allocated to streams.",
			Samples: []obs.Sample{{Value: float64(used)}}},
		{Name: "biasedres_multi_streams", Type: "gauge",
			Help:    "Streams currently registered with the manager.",
			Samples: []obs.Sample{{Value: float64(len(list))}}},
	}
	if len(list) == 0 {
		return out
	}
	share := obs.Family{Name: "biasedres_multi_stream_share_slots", Type: "gauge",
		Help: "Reservoir slots allocated to the stream."}
	streams := make([]core.NamedStream, len(list))
	for i, e := range list {
		share.Samples = append(share.Samples, obs.Sample{
			Labels: []obs.Label{{Key: "stream", Value: e.name}}, Value: float64(e.cfg.Slots())})
		streams[i] = core.NamedStream{Name: e.name, S: e.sm}
	}
	return append(append(out, share), core.StreamFamilies("biasedres_multi_", streams)...)
}

// Budget returns the total slot budget.
func (m *Manager) Budget() int { return m.budget }

// Used returns the number of allocated slots.
func (m *Manager) Used() int { return m.reg.Used() }

// Remaining returns the unallocated budget.
func (m *Manager) Remaining() int { return m.budget - m.reg.Used() }

// Len returns the number of registered streams.
func (m *Manager) Len() int { return m.reg.Len() }
