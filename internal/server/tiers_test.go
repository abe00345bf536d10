package server

import (
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"biasedres/internal/durable"
)

func TestTieredCreateValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		name string
		req  CreateRequest
	}{
		{"unsupported policy", CreateRequest{Policy: "unbiased", Capacity: 10, Tiers: 2}},
		{"negative tiers", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10, Tiers: -1}},
		{"bad ratio", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10, Tiers: 2, TierRatio: 0.5}},
	}
	for _, tc := range cases {
		resp, body := do(t, http.MethodPut, ts.URL+"/streams/bad", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %v, want 400", tc.name, resp.StatusCode, body)
		}
	}
}

func TestTieredStatsAndMetrics(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{
		Policy: "variable", Lambda: 1e-2, Capacity: 50, Tiers: 3, TierRatio: 4,
	})
	ingest(t, ts.URL, "s", floatPoints(200, 0))

	_, body := do(t, http.MethodGet, ts.URL+"/streams/s", nil)
	tiers, ok := body["tiers"].([]any)
	if !ok || len(tiers) != 3 {
		t.Fatalf("stats tiers = %v, want 3 entries", body["tiers"])
	}
	tier1 := tiers[1].(map[string]any)
	if got := tier1["lambda"].(float64); math.Abs(got-2.5e-3) > 1e-12 {
		t.Fatalf("tier 1 lambda = %v, want 2.5e-3", got)
	}
	if got := tier1["horizon"].(float64); math.Abs(got-400) > 1e-9 {
		t.Fatalf("tier 1 horizon = %v, want 400", got)
	}

	samples := scrape(t, ts.URL)
	for _, series := range []string{
		`biasedres_tier_reservoir_size{stream="s",tier="0"}`,
		`biasedres_tier_reservoir_capacity{stream="s",tier="2"}`,
		`biasedres_tier_lambda{stream="s",tier="1"}`,
		`biasedres_tier_horizon_points{stream="s",tier="0"}`,
	} {
		if _, ok := samples[series]; !ok {
			t.Errorf("metrics missing %s", series)
		}
	}
	if got := samples[`biasedres_tier_lambda{stream="s",tier="1"}`]; math.Abs(got-2.5e-3) > 1e-12 {
		t.Errorf("tier lambda gauge = %v, want 2.5e-3", got)
	}
}

func TestRangeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Lambda small enough that all 10 points stay resident with p = 1, so
	// the bucket estimates are exact.
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-6, Capacity: 100})
	ingest(t, ts.URL, "s", floatPoints(10, 0))

	resp, body := do(t, http.MethodGet, ts.URL+"/streams/s/range?start=1&end=11&max_points=3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("range: status %d body %v", resp.StatusCode, body)
	}
	if got := body["granularity"].(float64); got != 5 {
		t.Fatalf("granularity = %v, want 5 (span 10, budget 3)", got)
	}
	buckets := body["buckets"].([]any)
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2", len(buckets))
	}
	b0 := buckets[0].(map[string]any)
	if b0["start"].(float64) != 1 || b0["end"].(float64) != 6 {
		t.Fatalf("bucket 0 = %v, want [1,6)", b0)
	}
	if got := b0["count"].(float64); math.Abs(got-5) > 1e-3 {
		t.Fatalf("bucket 0 count = %v, want ~5", got)
	}
	// Values are 0..9, so bucket [6,11) holds arrivals 6..10 = values 5..9,
	// mean 7.
	b1 := buckets[1].(map[string]any)
	if got := b1["mean"].([]any)[0].(float64); math.Abs(got-7) > 1e-3 {
		t.Fatalf("bucket 1 mean = %v, want ~7", got)
	}
	if _, hasTier := body["tier"]; hasTier {
		t.Fatalf("untiered stream response has tier block: %v", body)
	}

	// end omitted → everything through the newest point.
	resp, body = do(t, http.MethodGet, ts.URL+"/streams/s/range", nil)
	if resp.StatusCode != http.StatusOK || body["end"].(float64) != 11 {
		t.Fatalf("default end: status %d body %v, want end 11", resp.StatusCode, body)
	}

	for _, bad := range []string{
		"?start=0",
		"?start=5&end=5",
		"?max_points=999999",
		"?start=abc",
		"?dim=2",       // the stream is 1-dimensional
		"?dim=1048576", // each bucket would allocate dim sums
	} {
		resp, _ := do(t, http.MethodGet, ts.URL+"/streams/s/range"+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("range%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/streams/nope/range", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream: status %d, want 404", resp.StatusCode)
	}
}

func TestRangeTierRouting(t *testing.T) {
	ts := newTestServer(t)
	// Horizons 100 and 800.
	createStream(t, ts.URL, "s", CreateRequest{
		Policy: "variable", Lambda: 1e-2, Capacity: 64, Tiers: 2, TierRatio: 8,
	})
	ingest(t, ts.URL, "s", floatPoints(1000, 0))

	// Recent narrow range: within tier 0's horizon of 100.
	_, body := do(t, http.MethodGet, ts.URL+"/streams/s/range?start=950", nil)
	tier := body["tier"].(map[string]any)
	if got := tier["index"].(float64); got != 0 {
		t.Fatalf("narrow recent range served by tier %v, want 0", got)
	}
	// Reaching back 700 arrivals exceeds tier 0 and fits tier 1.
	_, body = do(t, http.MethodGet, ts.URL+"/streams/s/range?start=301", nil)
	tier = body["tier"].(map[string]any)
	if got := tier["index"].(float64); got != 1 {
		t.Fatalf("wide range served by tier %v, want 1", got)
	}
	if got := tier["horizon"].(float64); math.Abs(got-800) > 1e-9 {
		t.Fatalf("tier horizon = %v, want 800", got)
	}

	samples := scrape(t, ts.URL)
	if samples[`biasedres_tier_queries_total{stream="s",tier="0"}`] < 1 ||
		samples[`biasedres_tier_queries_total{stream="s",tier="1"}`] < 1 {
		t.Fatalf("tier query counters not both incremented: %v", samples)
	}
}

// TestTierRoutingProperty checks the routing contract end to end: a count
// query served by the auto-selected tier of a tiered stream must agree
// with the same query against a dedicated single-λ stream running exactly
// the selected tier's bias rate, and both must sit near the true answer
// (the count of the last h arrivals is h). The streams draw independent
// RNG splits, so agreement is statistical; the seed is fixed, making the
// assertion deterministic.
func TestTierRoutingProperty(t *testing.T) {
	ts := newTestServer(t)
	const lambda, ratio, capacity = 1e-3, 8.0, 512
	createStream(t, ts.URL, "tiered", CreateRequest{
		Policy: "variable", Lambda: lambda, Capacity: capacity, Tiers: 3, TierRatio: ratio,
	})
	// Dedicated reference streams, one per tier rate.
	for i := 0; i < 3; i++ {
		createStream(t, ts.URL, fmt.Sprintf("ref%d", i), CreateRequest{
			Policy: "variable", Lambda: lambda / math.Pow(ratio, float64(i)), Capacity: capacity,
		})
	}
	const total = 20000
	for base := 0; base < total; base += 1000 {
		pts := floatPoints(1000, base)
		for _, name := range []string{"tiered", "ref0", "ref1", "ref2"} {
			ingest(t, ts.URL, name, pts)
		}
	}

	cases := []struct {
		h    uint64
		tier int
	}{
		{500, 0},   // within tier 0's horizon 1000
		{6000, 1},  // needs tier 1's horizon 8000
		{20000, 2}, // needs tier 2's horizon 64000
	}
	for _, tc := range cases {
		url := fmt.Sprintf("%s/streams/tiered/query?type=count&h=%d", ts.URL, tc.h)
		_, body := do(t, http.MethodGet, url, nil)
		tieredEst := body["estimate"].(float64)
		refURL := fmt.Sprintf("%s/streams/ref%d/query?type=count&h=%d", ts.URL, tc.tier, tc.h)
		_, refBody := do(t, http.MethodGet, refURL, nil)
		refEst := refBody["estimate"].(float64)
		truth := float64(tc.h)

		for name, est := range map[string]float64{"tiered": tieredEst, "dedicated": refEst} {
			if rel := math.Abs(est-truth) / truth; rel > 0.35 {
				t.Errorf("h=%d: %s estimate %.0f is %.0f%% off the true count %v",
					tc.h, name, est, rel*100, truth)
			}
		}
		if rel := math.Abs(tieredEst-refEst) / truth; rel > 0.5 {
			t.Errorf("h=%d: tiered %.0f vs dedicated %.0f disagree by %.0f%% of truth",
				tc.h, tieredEst, refEst, rel*100)
		}
	}

	// The routed tier is observable: each query must have landed on the
	// tier the horizon selects.
	samples := scrape(t, ts.URL)
	for _, tier := range []int{0, 1, 2} {
		series := fmt.Sprintf(`biasedres_tier_queries_total{stream="tiered",tier="%d"}`, tier)
		if samples[series] != 1 {
			t.Errorf("%s = %v, want exactly 1", series, samples[series])
		}
	}
}

func TestTieredDurableRecovery(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, store := newDurableServer(t, fs)
	createStream(t, ts.URL, "s", CreateRequest{
		Policy: "variable", Lambda: 1e-2, Capacity: 64, Tiers: 3, TierRatio: 8,
	})
	ingest(t, ts.URL, "s", floatPoints(200, 0))
	srv.CheckpointNow()
	// These ride the journal only; Sync makes them crash-durable.
	ingest(t, ts.URL, "s", floatPoints(50, 200))
	if err := store.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	_, before := do(t, http.MethodGet, ts.URL+"/streams/s/sample", nil)
	fs.Crash()
	ts.Close()
	fs.Reboot()

	ts2, _, _ := newDurableServer(t, fs)
	if got := streamProcessed(t, ts2.URL, "s"); got != 250 {
		t.Fatalf("recovered processed = %v, want 250", got)
	}
	_, stats := do(t, http.MethodGet, ts2.URL+"/streams/s", nil)
	tiers, ok := stats["tiers"].([]any)
	if !ok || len(tiers) != 3 {
		t.Fatalf("recovered stream lost its ladder: tiers = %v", stats["tiers"])
	}
	// Checkpoint restore plus journal replay is resume-identical: the
	// recovered tier-0 reservoir holds exactly the pre-crash residents.
	_, after := do(t, http.MethodGet, ts2.URL+"/streams/s/sample", nil)
	if fmt.Sprint(before["points"]) != fmt.Sprint(after["points"]) {
		t.Fatalf("recovered sample differs from pre-crash sample:\nbefore %v\nafter  %v",
			before["points"], after["points"])
	}
	// The recovered ladder keeps routing: reaching back all 250 arrivals
	// exceeds tier 0's horizon of 100 and lands on tier 1 (horizon 800).
	_, body := do(t, http.MethodGet, ts2.URL+"/streams/s/range?start=1", nil)
	if tier := body["tier"].(map[string]any); tier["index"].(float64) != 1 {
		t.Fatalf("post-recovery range served by tier %v, want 1", tier["index"])
	}
}

func TestRetentionDropsDecayedTier(t *testing.T) {
	fs := durable.NewMemFS()
	// Hour-scale interval: sweeps in this test are explicit calls.
	ts, srv, _ := newDurableServer(t, fs, WithRetention(0.5, time.Hour))
	// Constrained tiers run p_in = capacity·λ_i = 0.2 (tier 0) and 0.025
	// (tier 1) — every resident sits below the 0.5 floor, so one sweep
	// must empty the whole ladder.
	createStream(t, ts.URL, "s", CreateRequest{
		Policy: "constrained", Lambda: 0.05, Capacity: 4, Tiers: 2, TierRatio: 8,
	})
	ingest(t, ts.URL, "s", floatPoints(100, 0))
	_, stats := do(t, http.MethodGet, ts.URL+"/streams/s", nil)
	if size := stats["size"].(float64); size == 0 {
		t.Fatal("tier 0 empty before the sweep; the test needs residents to drop")
	}

	srv.sweepRetention()

	_, stats = do(t, http.MethodGet, ts.URL+"/streams/s", nil)
	var removed float64
	for i, raw := range stats["tiers"].([]any) {
		tier := raw.(map[string]any)
		if got := tier["size"].(float64); got != 0 {
			t.Errorf("tier %d size after sweep = %v, want 0", i, got)
		}
		if got := tier["drops"].(float64); got != 1 {
			t.Errorf("tier %d drops = %v, want 1", i, got)
		}
		removed += tier["compacted"].(float64)
	}
	if removed == 0 {
		t.Fatal("no residents were compacted")
	}
	samples := scrape(t, ts.URL)
	if got := samples[`biasedres_tier_retention_removed_points_total{stream="s"}`]; got != removed {
		t.Errorf("removed-points counter = %v, want %v", got, removed)
	}
	if got := samples[`biasedres_tier_drops_total{stream="s",tier="1"}`]; got != 1 {
		t.Errorf("tier 1 drop counter = %v, want 1", got)
	}
	if got := samples["biasedres_tier_retention_sweeps_total"]; got != 1 {
		t.Errorf("sweeps counter = %v, want 1", got)
	}

	// The sweep force-checkpointed the compacted ladder: after a hard
	// crash, recovery must restore empty tiers, not resurrect residents
	// from a pre-compaction checkpoint.
	fs.Crash()
	ts.Close()
	fs.Reboot()
	ts2, _, _ := newDurableServer(t, fs)
	_, stats = do(t, http.MethodGet, ts2.URL+"/streams/s", nil)
	for i, raw := range stats["tiers"].([]any) {
		tier := raw.(map[string]any)
		if got := tier["size"].(float64); got != 0 {
			t.Errorf("recovered tier %d size = %v, want 0 (compaction must be durable)", i, got)
		}
	}
}

func TestRetentionBackgroundSweepRuns(t *testing.T) {
	srv := New(1, WithRetention(0.5, 5*time.Millisecond))
	defer srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.RetentionSweeps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background retention sweep never ran")
		}
		time.Sleep(time.Millisecond)
	}
}
