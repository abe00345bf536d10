package server

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"biasedres/internal/query"
)

// fetchAccum GETs the accum endpoint and decodes the wire accumulator.
func fetchAccum(t *testing.T, url string) *query.Accum {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("accum status %d: %s", resp.StatusCode, raw)
	}
	acc, err := query.DecodeAccum(raw)
	if err != nil {
		t.Fatalf("decoding accum %q: %v", raw, err)
	}
	return acc
}

// TestAccumEndpointMatchesQuery: statistics derived from the accumulator
// the /accum endpoint exports must equal the /query endpoint's own
// answers — the two read the same snapshot through the same kernels.
func TestAccumEndpointMatchesQuery(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 200})
	pts := make([]IngestPoint, 500)
	for i := range pts {
		label := i % 3
		pts[i] = IngestPoint{Values: []float64{float64(i % 10), float64(i % 7)}, Label: &label}
	}
	ingest(t, ts.URL, "s", pts)

	acc := fetchAccum(t, ts.URL+"/streams/s/accum?h=300")

	// count
	_, body := do(t, http.MethodGet, ts.URL+"/streams/s/query?type=count&h=300", nil)
	if est := body["estimate"].(float64); math.Abs(est-acc.Count) > 1e-9 {
		t.Fatalf("accum count %v, query estimate %v", acc.Count, est)
	}
	if v := body["variance"].(float64); math.Abs(v-acc.CountVar) > 1e-9 {
		t.Fatalf("accum variance %v, query variance %v", acc.CountVar, v)
	}

	// average
	avg, err := acc.Average()
	if err != nil {
		t.Fatal(err)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/streams/s/query?type=average&h=300", nil)
	got := body["average"].([]any)
	if len(got) != len(avg) {
		t.Fatalf("average dims %d vs %d", len(got), len(avg))
	}
	for d := range avg {
		if math.Abs(got[d].(float64)-avg[d]) > 1e-9 {
			t.Fatalf("average[%d]: accum %v, query %v", d, avg[d], got[d])
		}
	}

	// classdist
	dist, err := acc.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/streams/s/query?type=classdist&h=300", nil)
	wire := body["distribution"].(map[string]any)
	if len(wire) != len(dist) {
		t.Fatalf("classdist labels %d vs %d", len(wire), len(dist))
	}

	// selectivity via rect params
	accR := fetchAccum(t, ts.URL+"/streams/s/accum?h=300&dims=0&lo=0&hi=4")
	sel, err := accR.Selectivity()
	if err != nil {
		t.Fatal(err)
	}
	_, body = do(t, http.MethodGet, ts.URL+"/streams/s/query?type=selectivity&h=300&dims=0&lo=0&hi=4", nil)
	if got := body["selectivity"].(float64); math.Abs(got-sel) > 1e-9 {
		t.Fatalf("accum selectivity %v, query selectivity %v", sel, got)
	}
}

// TestAccumEndpointEmptyAndErrors: empty streams answer a zero
// accumulator (the coordinator decides about sample mass), bad params 400,
// missing streams 404.
func TestAccumEndpointEmptyAndErrors(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "empty", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})

	acc := fetchAccum(t, ts.URL+"/streams/empty/accum")
	if acc.Count != 0 || acc.T != 0 || len(acc.Classes) != 0 {
		t.Fatalf("empty stream accum not zero: %+v", acc)
	}

	resp, _ := do(t, http.MethodGet, ts.URL+"/streams/empty/accum?h=x", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad horizon: status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/streams/empty/accum?dims=0&lo=x&hi=1", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad rect: status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/streams/nope/accum", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing stream: status %d", resp.StatusCode)
	}
}

// TestAccumDimBound: /accum sums at most the stream's dimensionality. A
// larger dim is a 400, not a per-class allocation the caller sized.
func TestAccumDimBound(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	pts := make([]IngestPoint, 30)
	for i := range pts {
		label := i % 3
		pts[i] = IngestPoint{Values: []float64{float64(i), 1}, Label: &label}
	}
	ingest(t, ts.URL, "s", pts)

	for _, dim := range []string{"0", "2"} {
		if acc := fetchAccum(t, ts.URL+"/streams/s/accum?dim="+dim); len(acc.Sums) != acc.Dim {
			t.Fatalf("dim=%s: %d sums for dim %d", dim, len(acc.Sums), acc.Dim)
		}
	}
	for _, dim := range []string{"3", "4194304"} {
		resp, body := do(t, http.MethodGet, ts.URL+"/streams/s/accum?dim="+dim, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("dim=%s on a 2-dim stream: status %d body %v, want 400", dim, resp.StatusCode, body)
		}
	}
}

// TestReadyz: ready after New, 503 after Close.
func TestReadyz(t *testing.T) {
	srv := New(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := do(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz before close: status %d body %v", resp.StatusCode, body)
	}

	srv.Close()
	resp, _ = do(t, http.MethodGet, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after close: status %d, want 503", resp.StatusCode)
	}
	// Liveness stays up through shutdown.
	resp, _ = do(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after close: status %d", resp.StatusCode)
	}
}
