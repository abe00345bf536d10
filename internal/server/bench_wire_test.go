package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"biasedres/internal/client"
	"biasedres/internal/wire"
)

// The wire suite compares the two network ingest paths on equal terms:
// both run over real loopback TCP with persistent connections, the same
// synchronous server, the same stream configuration and the same
// 256-point batches — the only variable is the protocol (binary frames
// vs JSON-over-HTTP). cmd/benchingest -suite wire runs these and emits
// BENCH_wire.json; the acceptance bar is binary ≥ 5× JSON points/s.

const wireBenchBatch = 256

// benchWirePoints builds one client batch of n 2-dim points, the values
// of benchIngestBody's batch.
func benchWirePoints(n int) []client.Point {
	pts := make([]client.Point, n)
	for i, v := range benchValues(n) {
		pts[i] = client.Point{Values: v}
	}
	return pts
}

// BenchmarkWireTCP measures the binary path end to end: WireConn encode →
// loopback TCP → listener decode → IngestFrame → sampler, one ACKed
// frame of 256 points per iteration.
func BenchmarkWireTCP(b *testing.B) {
	benchWireTCP(b, CreateRequest{Policy: "variable", Lambda: 1e-4, Capacity: 1000})
}

// BenchmarkWireTCPAdmitAll is BenchmarkWireTCP into the admitAllStreams,
// which copy every point they receive.
func BenchmarkWireTCPAdmitAll(b *testing.B) {
	for _, c := range admitAllStreams {
		b.Run(c.name, func(b *testing.B) { benchWireTCP(b, c.req) })
	}
}

func benchWireTCP(b *testing.B, req CreateRequest) {
	srv := New(1)
	benchCreate(b, srv, req)
	wl, addr := startWireListener(b, srv)
	defer wl.Close()
	wc, err := client.DialWire(addr, client.WireConnConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer wc.Close()
	pts := benchWirePoints(wireBenchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wc.Push("s", pts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*wireBenchBatch/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkWireHTTPJSON is the JSON baseline over the same loopback TCP:
// a keep-alive http.Client POSTing the identical batch to the identical
// server. (The HTTP-named benchmarks in bench_ingest_test.go skip the
// network with httptest recorders; this one pays it, so the two wire-
// suite numbers are directly comparable.)
func BenchmarkWireHTTPJSON(b *testing.B) {
	srv := New(1)
	benchCreateStream(b, srv, "s")
	ts := httptest.NewServer(srv)
	defer ts.Close()
	blob := benchIngestBody(b, wireBenchBatch)
	url := ts.URL + "/streams/s/points"
	hc := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := hc.Post(url, "application/json", bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	b.ReportMetric(float64(b.N)*wireBenchBatch/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkWireIngestFrame isolates the server-side frame handoff —
// decode already done, measuring IngestFrame's validate + batch build +
// sampler apply. The batch buffer is pooled, so at steady state the only
// allocations are the copies of the points the sampler admits
// (TestIngestFrameAllocs guards this). The stream is the one
// benchCreateStream makes, a variable reservoir with λ·capacity = 0.1,
// so about one point in ten is admitted and copied.
func BenchmarkWireIngestFrame(b *testing.B) {
	benchIngestFrame(b, CreateRequest{Policy: "variable", Lambda: 1e-4, Capacity: 1000})
}

// admitAllStreams admit every point, the worst case for copying admitted
// values: biased with λ·capacity = 1, and a 3-tier uncapped biased ladder
// (Algorithm 2.1 per tier, capacity ⌊1/λ_i⌋), whose every tier admits
// every point, so each point is copied three times.
var admitAllStreams = []struct {
	name string
	req  CreateRequest
}{
	{"biased", CreateRequest{Policy: "biased", Lambda: 1e-3, Capacity: 1000}},
	{"biased-3tier", CreateRequest{Policy: "biased", Lambda: 1e-3, Tiers: 3}},
}

// BenchmarkWireIngestFrameAdmitAll is BenchmarkWireIngestFrame into the
// admitAllStreams.
func BenchmarkWireIngestFrameAdmitAll(b *testing.B) {
	for _, c := range admitAllStreams {
		b.Run(c.name, func(b *testing.B) { benchIngestFrame(b, c.req) })
	}
}

// benchIngestFrame runs one 256-point, 2-dim frame per iteration through
// IngestFrame into a synchronous stream created from req.
func benchIngestFrame(b *testing.B, req CreateRequest) {
	srv := New(1)
	defer srv.Close()
	benchCreate(b, srv, req)
	f := &wire.Frame{Name: []byte("s"), Dim: 2, Count: wireBenchBatch}
	f.Values = make([]float64, wireBenchBatch*2)
	for i := range f.Values {
		f.Values[i] = float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
			b.Fatalf("reply %+v", r)
		}
	}
	b.ReportMetric(float64(b.N)*wireBenchBatch/b.Elapsed().Seconds(), "points/s")
}

// benchCreate creates stream "s" on srv from req.
func benchCreate(b *testing.B, srv *Server, req CreateRequest) {
	b.Helper()
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/streams/s", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		b.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
}
