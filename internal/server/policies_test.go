package server

import (
	"net/http"
	"testing"
)

// End-to-end coverage of the new sampler policies through the stream API:
// create, ingest, query, sample, export/restore.
func TestNewSamplerPoliciesRoundTrip(t *testing.T) {
	for _, policy := range []string{"ttbs", "rtbs"} {
		t.Run(policy, func(t *testing.T) {
			ts := newTestServer(t)
			createStream(t, ts.URL, "s", CreateRequest{Policy: policy, Lambda: 1e-2, Capacity: 50})
			ingest(t, ts.URL, "s", floatPoints(500, 0))

			resp, body := do(t, http.MethodGet, ts.URL+"/streams/s", nil)
			if resp.StatusCode != http.StatusOK || body["policy"] != policy {
				t.Fatalf("stats: status %d body %v", resp.StatusCode, body)
			}
			if body["size"].(float64) == 0 {
				t.Fatal("empty reservoir after 500 points")
			}
			// R-TBS is hard-bounded by its capacity; T-TBS fluctuates around
			// its target but 500 points at λ=0.01 stay well under 2× target.
			if size := body["size"].(float64); size > 100 {
				t.Fatalf("reservoir size %v implausible for capacity 50", size)
			}

			resp, body = do(t, http.MethodGet, ts.URL+"/streams/s/sample", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sample: status %d", resp.StatusCode)
			}
			for _, raw := range body["points"].([]any) {
				p := raw.(map[string]any)
				if prob := p["prob"].(float64); !(prob > 0) || prob > 1 {
					t.Fatalf("point %v has inclusion probability %v outside (0,1]", p["index"], prob)
				}
			}

			resp, body = do(t, http.MethodGet, ts.URL+"/streams/s/query?type=count&h=100", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query: status %d body %v", resp.StatusCode, body)
			}
			if est := body["estimate"].(float64); est < 20 || est > 500 {
				t.Fatalf("count estimate %v wildly off for h=100", est)
			}

			// Export → more ingest → restore rewinds the stream.
			blob := fetchTransfer(t, ts.URL, "s")
			ingest(t, ts.URL, "s", floatPoints(100, 500))
			resp, body = do(t, http.MethodPost, ts.URL+"/streams/s/restore", blob)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("restore: status %d body %v", resp.StatusCode, body)
			}
			resp, body = do(t, http.MethodGet, ts.URL+"/streams/s", nil)
			if resp.StatusCode != http.StatusOK || body["processed"].(float64) != 500 {
				t.Fatalf("restored stats: status %d body %v", resp.StatusCode, body)
			}
			// And the restored stream keeps ingesting.
			ingest(t, ts.URL, "s", floatPoints(10, 500))
		})
	}
}

func TestNewSamplerPolicyValidation(t *testing.T) {
	ts := newTestServer(t)
	// T-TBS enforces its target bound n ≤ 1/(1-e^{-λ}) ≈ 100 at λ=0.01.
	resp, _ := do(t, http.MethodPut, ts.URL+"/streams/a", CreateRequest{Policy: "ttbs", Lambda: 1e-2, Capacity: 500})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-target T-TBS create: status %d, want 400", resp.StatusCode)
	}
	// Both families need a positive capacity and λ.
	for _, policy := range []string{"ttbs", "rtbs"} {
		resp, _ = do(t, http.MethodPut, ts.URL+"/streams/a", CreateRequest{Policy: policy, Lambda: 1e-2})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with zero capacity: status %d, want 400", policy, resp.StatusCode)
		}
		resp, _ = do(t, http.MethodPut, ts.URL+"/streams/a", CreateRequest{Policy: policy, Capacity: 10})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with zero lambda: status %d, want 400", policy, resp.StatusCode)
		}
	}
}

// Both new families support multi-horizon tier ladders: λ only relaxes the
// T-TBS target bound as tiers deepen, so tier 0 is the binding one.
func TestNewSamplerPoliciesTiered(t *testing.T) {
	for _, policy := range []string{"ttbs", "rtbs"} {
		t.Run(policy, func(t *testing.T) {
			ts := newTestServer(t)
			createStream(t, ts.URL, "s", CreateRequest{Policy: policy, Lambda: 1e-2, Capacity: 30, Tiers: 3})
			ingest(t, ts.URL, "s", floatPoints(400, 0))
			resp, body := do(t, http.MethodGet, ts.URL+"/streams/s", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("stats: status %d", resp.StatusCode)
			}
			tiers, ok := body["tiers"].([]any)
			if !ok || len(tiers) != 3 {
				t.Fatalf("tiered %s stream reports tiers %v", policy, body["tiers"])
			}
			resp, body = do(t, http.MethodGet, ts.URL+"/streams/s/query?type=count&h=2000", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("horizon query: status %d body %v", resp.StatusCode, body)
			}
		})
	}
}
