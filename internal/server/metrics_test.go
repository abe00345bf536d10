package server

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"biasedres/internal/multi"
	"biasedres/internal/stream"
)

// scrape fetches /metrics, validates every line against the text
// exposition grammar, refuses a series that appears twice, and returns the
// samples keyed by series string.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The label block is matched greedily: label values may themselves
	// contain '}' (e.g. route="GET /streams/{name}").
	sampleLine := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*(?:\{.*\})?) (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)
	samples := make(map[string]float64)
	for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("metrics line %d does not parse: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil && m[2] != "+Inf" && m[2] != "-Inf" && m[2] != "NaN" {
			t.Fatalf("metrics line %d: bad value %q", i+1, m[2])
		}
		if _, dup := samples[m[1]]; dup {
			t.Fatalf("metrics line %d repeats series %s", i+1, m[1])
		}
		samples[m[1]] = v
	}
	return samples
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "m", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 100})
	batch := make([]IngestPoint, 1000)
	for i := range batch {
		batch[i] = IngestPoint{Values: []float64{float64(i)}}
	}
	ingest(t, ts.URL, "m", batch)
	if resp, _ := do(t, http.MethodGet, ts.URL+"/streams/m/query?type=count&h=100", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	samples := scrape(t, ts.URL)
	ingestSeries := `biasedres_http_requests_total{route="POST /streams/{name}/points",code="2xx"}`
	if samples[ingestSeries] != 1 {
		t.Fatalf("ingest request counter = %v, want 1 (samples %v)", samples[ingestSeries], samples)
	}
	if samples[`biasedres_http_request_seconds_count{route="POST /streams/{name}/points"}`] != 1 {
		t.Fatal("latency histogram did not record the ingest request")
	}
	if samples[`biasedres_http_request_seconds_bucket{route="POST /streams/{name}/points",le="+Inf"}`] != 1 {
		t.Fatal("latency histogram +Inf bucket missing")
	}
	if samples[`biasedres_points_ingested_total{stream="m"}`] != 1000 {
		t.Fatalf("points ingested counter = %v", samples[`biasedres_points_ingested_total{stream="m"}`])
	}
	// Per-stream sampler gauges.
	if samples[`biasedres_stream_processed_total{stream="m"}`] != 1000 {
		t.Fatalf("stream processed = %v", samples[`biasedres_stream_processed_total{stream="m"}`])
	}
	if got := samples[`biasedres_stream_reservoir_size{stream="m"}`]; got <= 0 || got > 100 {
		t.Fatalf("stream size gauge = %v", got)
	}
	if samples[`biasedres_stream_reservoir_capacity{stream="m"}`] != 100 {
		t.Fatal("capacity gauge wrong")
	}
	if got := samples[`biasedres_stream_fill_fraction{stream="m"}`]; got <= 0 || got > 1 {
		t.Fatalf("fill gauge = %v", got)
	}
	if got := samples[`biasedres_stream_p_in{stream="m"}`]; got <= 0 || got > 1 {
		t.Fatalf("p_in gauge = %v", got)
	}
	if got := samples[`biasedres_stream_reduction_phases_total{stream="m"}`]; got <= 0 {
		t.Fatalf("phases counter = %v (variable sampler should have reduced)", got)
	}
	if got, ok := samples[`biasedres_stream_admitted_total{stream="m"}`]; !ok || got <= 0 || got > 1000 {
		t.Fatalf("admitted counter = %v ok=%v", got, ok)
	}

	// Counters move with traffic.
	ingest(t, ts.URL, "m", batch)
	after := scrape(t, ts.URL)
	if after[ingestSeries] != 2 {
		t.Fatalf("ingest request counter after more traffic = %v, want 2", after[ingestSeries])
	}
	if after[`biasedres_stream_processed_total{stream="m"}`] != 2000 {
		t.Fatalf("stream processed after more traffic = %v", after[`biasedres_stream_processed_total{stream="m"}`])
	}

	// Error responses land in the 4xx class.
	if resp, _ := do(t, http.MethodGet, ts.URL+"/streams/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing stream status %d", resp.StatusCode)
	}
	after = scrape(t, ts.URL)
	if after[`biasedres_http_requests_total{route="GET /streams/{name}",code="4xx"}`] != 1 {
		t.Fatal("4xx class not counted")
	}
}

func TestMetricsManyStreams(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("s%d", i)
		createStream(t, ts.URL, name, CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
		ingest(t, ts.URL, name, []IngestPoint{{Values: []float64{1}}})
	}
	samples := scrape(t, ts.URL)
	for i := 0; i < 5; i++ {
		series := fmt.Sprintf(`biasedres_stream_processed_total{stream="s%d"}`, i)
		if samples[series] != 1 {
			t.Fatalf("%s = %v", series, samples[series])
		}
	}
}

// TestMetricsWithManagerRegistered: a multi.Manager registered on the
// server's registry, as OPERATIONS §3 says to, holding a stream of the
// same name as one of the server's, still leaves a valid exposition:
// every family has one # TYPE line, and no series appears twice.
func TestMetricsWithManagerRegistered(t *testing.T) {
	srv := New(1)
	t.Cleanup(func() { srv.Close() })
	ts := newTestServerFor(t, srv)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	ingest(t, ts.URL, "s", []IngestPoint{{Values: []float64{1}}, {Values: []float64{2}}})
	if resp, _ := do(t, http.MethodGet, ts.URL+"/streams/s/query?type=count&h=0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	mgr, err := multi.NewManager(100, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("s", 50); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Add("s", stream.Point{Index: 1, Values: []float64{1}, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Snapshot("s"); err != nil {
		t.Fatal(err)
	}
	srv.Metrics().Register(mgr)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	types, series := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			types[strings.Fields(line)[2]]++
		case !strings.HasPrefix(line, "#"):
			series[line[:strings.LastIndexByte(line, ' ')]]++
		}
	}
	for name, n := range types {
		if n != 1 {
			t.Errorf("family %s has %d # TYPE lines", name, n)
		}
	}
	for s, n := range series {
		if n != 1 {
			t.Errorf("series %s appears %d times", s, n)
		}
	}
	if types["biasedres_snapshot_cache_hits_total"] != 1 || types["biasedres_multi_snapshot_cache_hits_total"] != 1 {
		t.Fatalf("want the server's and the manager's snapshot cache families, got %v", types)
	}
}
