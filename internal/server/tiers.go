package server

import (
	"net/http"
	"strconv"
	"time"

	"biasedres/internal/core"
	"biasedres/internal/httpapi"
	"biasedres/internal/obs"
	"biasedres/internal/query"
)

// Multi-horizon tier support: streams created with "tiers" > 1 run a
// core.TieredReservoir — a ladder of reservoirs at geometrically-spaced λ
// fed by the same ingest fan-out, built by core.SamplerFactory and routed
// by core.Synchronized.SnapshotFor — and this file holds what the server
// layers on top of it: the GET /streams/{name}/range endpoint, the
// retention sweep, and the biasedres_tier_* metrics.

// rangeMaxPointsDefault/Cap bound the GET /range bucket budget: the
// response allocates one bucket per point, so the cap keeps a hostile
// max_points from ballooning the response.
const (
	rangeMaxPointsDefault = 200
	rangeMaxPointsCap     = 10000
)

// countTierQuery records a horizon-routed read. Untiered streams (tier -1)
// are not counted — the metric exists to show ladder utilization.
func (s *Server) countTierQuery(name string, tier int) {
	if tier < 0 {
		return
	}
	s.tierQueries.With(name, strconv.Itoa(tier)).Inc()
}

// tierStats reads every tier's metrics under the sampler lock.
func (ms *managedStream) tierStats(tr *core.TieredReservoir) []core.TierStats {
	stats := make([]core.TierStats, tr.NumTiers())
	ms.sm.View(func(core.Sampler) {
		for i := range stats {
			stats[i] = tr.Stats(i)
		}
	})
	return stats
}

// handleRange is GET /streams/{name}/range?start=…&end=…&max_points=…:
// bucketed Horvitz–Thompson estimates over the arrival-index range
// [start, end). The bucket width is auto-selected from the span and the
// max_points budget (1-2-5 ladder, ≤ max_points buckets); tiered streams
// serve the request from the tier covering the oldest requested arrival.
// end defaults to t+1 (everything up to the newest point), start to 1.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request, ms *managedStream) {
	q := r.URL.Query()
	start, err := parseUint(q.Get("start"), 1)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "bad start: %v", err)
		return
	}
	if start == 0 {
		httpapi.Error(w, http.StatusBadRequest, "start must be >= 1 (arrival indices are 1-based)")
		return
	}
	maxPoints, err := parseUint(q.Get("max_points"), rangeMaxPointsDefault)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "bad max_points: %v", err)
		return
	}
	if maxPoints == 0 || maxPoints > rangeMaxPointsCap {
		httpapi.Error(w, http.StatusBadRequest, "max_points must be in [1, %d]", rangeMaxPointsCap)
		return
	}
	dim, err := ms.sumDims(q.Get("dim"))
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The stream position decides the end default and the routing horizon;
	// every tier shares it, so one brief sampler-lock read suffices.
	t := ms.sm.Processed()
	end, err := parseUint(q.Get("end"), t+1)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "bad end: %v", err)
		return
	}
	if end <= start {
		httpapi.Error(w, http.StatusBadRequest, "empty range [%d, %d)", start, end)
		return
	}

	// Route to the tier whose horizon reaches back to the oldest requested
	// arrival: age of `start` plus one so the covering test is inclusive.
	var h uint64 = 1
	if start <= t {
		h = t - start + 1
	}
	snap, tier := ms.sm.SnapshotFor(h)
	s.countTierQuery(ms.name, tier)

	step := query.GranularityFor(end-start, int(maxPoints))
	buckets, err := query.AccumulateBuckets(snap, start, end, step, dim)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := query.RangeResult{Buckets: buckets, End: end, Granularity: step, Start: start, T: snap.T}
	if tr := ms.sm.Tiered(); tier >= 0 && tr != nil {
		out.Tier = &query.RangeTier{Horizon: tr.TierHorizon(tier), Index: tier, Lambda: tr.TierLambda(tier)}
	}
	httpapi.JSON(w, http.StatusOK, out)
}

// WithRetention enables the background retention sweep: every interval,
// residents whose inclusion probability has decayed below floor are
// compacted out of every stream that supports it (core.Compactor — the
// biased, variable, timedecay policies and tier ladders over them). A tier
// whose residents have all decayed is dropped to empty and counted in
// biasedres_tier_drops_total. Compacted streams are immediately
// re-checkpointed when durability is on, so recovery restores the
// compacted ladder, not a pre-compaction ghost. floor must be in (0, 1);
// interval defaults to 30s.
func WithRetention(floor float64, interval time.Duration) Option {
	return func(s *Server) {
		if !(floor > 0) || floor >= 1 {
			return
		}
		if interval <= 0 {
			interval = 30 * time.Second
		}
		s.retFloor = floor
		s.retInterval = interval
	}
}

// sweepRetention compacts every stream once. Exported behaviour lives in
// the metrics: removed points count into
// biasedres_tier_retention_removed_points_total, and per-tier
// compacted/drop totals surface through collectTiers.
func (s *Server) sweepRetention() {
	s.retSweeps.Add(1)
	for _, ms := range s.streamList() {
		name := ms.name
		removed := 0
		ms.sm.Update(func(sm core.Sampler) {
			if c, ok := sm.(core.Compactor); ok {
				removed = c.CompactBelow(s.retFloor)
			}
		})
		if removed == 0 {
			continue
		}
		s.retRemoved.With(name).Add(uint64(removed))
		if s.log != nil {
			s.log.Info("retention sweep compacted stream",
				"stream", name, "removed", removed, "floor", s.retFloor)
		}
		if s.durable != nil {
			// Persist the compacted state right away: recovery must
			// restore the post-compaction ladder byte-identically rather
			// than resurrect dropped residents from an older checkpoint.
			s.checkpointStream(ms, true)
		}
	}
}

// RetentionSweeps returns how many retention sweeps have run (0 when
// retention is disabled); tests and the readiness of tuning runbooks use
// it.
func (s *Server) RetentionSweeps() uint64 { return s.retSweeps.Load() }

// collectTiers exports per-tier gauges for every tiered stream plus the
// sweep counter when retention is on.
func (s *Server) collectTiers() []obs.Family {

	tierLabel := func(name string, i int) []obs.Label {
		return []obs.Label{{Key: "stream", Value: name}, {Key: "tier", Value: strconv.Itoa(i)}}
	}
	size := obs.Family{Name: "biasedres_tier_reservoir_size", Type: "gauge",
		Help: "Points currently resident in the tier's reservoir."}
	capacity := obs.Family{Name: "biasedres_tier_reservoir_capacity", Type: "gauge",
		Help: "Tier reservoir slot budget."}
	lambda := obs.Family{Name: "biasedres_tier_lambda", Type: "gauge",
		Help: "Tier bias rate λ_i = λ/ratio^i."}
	horizon := obs.Family{Name: "biasedres_tier_horizon_points", Type: "gauge",
		Help: "Tier effective horizon 1/λ_i in arrivals."}
	compacted := obs.Family{Name: "biasedres_tier_compacted_points_total", Type: "counter",
		Help: "Residents removed from the tier by retention compaction."}
	drops := obs.Family{Name: "biasedres_tier_drops_total", Type: "counter",
		Help: "Retention sweeps that emptied the tier (its data had fully decayed)."}

	for _, ms := range s.streamList() {
		name := ms.name
		tr := ms.sm.Tiered()
		if tr == nil {
			continue
		}
		for i, st := range ms.tierStats(tr) {
			l := tierLabel(name, i)
			size.Samples = append(size.Samples, obs.Sample{Labels: l, Value: float64(st.Len)})
			capacity.Samples = append(capacity.Samples, obs.Sample{Labels: l, Value: float64(st.Capacity)})
			lambda.Samples = append(lambda.Samples, obs.Sample{Labels: l, Value: st.Lambda})
			horizon.Samples = append(horizon.Samples, obs.Sample{Labels: l, Value: st.Horizon})
			compacted.Samples = append(compacted.Samples, obs.Sample{Labels: l, Value: float64(st.Compacted)})
			drops.Samples = append(drops.Samples, obs.Sample{Labels: l, Value: float64(st.Drops)})
		}
	}

	var out []obs.Family
	for _, fam := range []obs.Family{size, capacity, lambda, horizon, compacted, drops} {
		if len(fam.Samples) > 0 {
			out = append(out, fam)
		}
	}
	if s.retFloor > 0 {
		out = append(out, obs.Family{Name: "biasedres_tier_retention_sweeps_total", Type: "counter",
			Help:    "Retention sweeps run over all streams.",
			Samples: []obs.Sample{{Value: float64(s.retSweeps.Load())}}})
	}
	return out
}
