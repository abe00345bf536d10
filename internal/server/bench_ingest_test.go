package server

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// benchValues are the values of the benchmarks' n 2-dim points: seeded
// uniform draws, which take 16 or 17 significant digits in shortest form
// like the values real clients send, so JSON decode pays a full float
// conversion per value. Every call returns the same values.
func benchValues(n int) [][]float64 {
	rng := rand.New(rand.NewPCG(28, 1))
	vals := make([][]float64, n)
	for i := range vals {
		vals[i] = []float64{rng.Float64(), rng.Float64()}
	}
	return vals
}

// benchIngestBody pre-encodes one ingest request of n points.
func benchIngestBody(b *testing.B, n int) []byte {
	b.Helper()
	pts := make([]IngestPoint, n)
	for i, v := range benchValues(n) {
		pts[i] = IngestPoint{Values: v}
	}
	blob, err := json.Marshal(IngestRequest{Points: pts})
	if err != nil {
		b.Fatal(err)
	}
	return blob
}

func benchCreateStream(b *testing.B, srv *Server, name string) {
	b.Helper()
	body, _ := json.Marshal(CreateRequest{Policy: "variable", Lambda: 1e-4, Capacity: 1000})
	req := httptest.NewRequest(http.MethodPut, "/streams/"+name, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		b.Fatalf("create %s: status %d", name, rec.Code)
	}
}

// BenchmarkIngestHTTPSync measures the full HTTP ingest path with
// synchronous application: handler returns after the batch is sampled.
// One iteration = one request of `batch` points.
func BenchmarkIngestHTTPSync(b *testing.B) {
	const batch = 256
	srv := New(1)
	benchCreateStream(b, srv, "s")
	blob := benchIngestBody(b, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/streams/s/points", bytes.NewReader(blob))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkIngestHTTPSharded measures the async path: the handler
// validates, assigns indices and enqueues; the stream's worker applies
// batches off the request path. 429 rejections are retried so every
// point lands (accepted work, not accepted requests, is what points/s
// reports). The timer includes the final drain, so the number is honest
// end-to-end throughput, not queue-filling speed.
func BenchmarkIngestHTTPSharded(b *testing.B) {
	const batch = 256
	srv := New(1, WithIngestShards(4, 256))
	defer srv.Close()
	benchCreateStream(b, srv, "s")
	blob := benchIngestBody(b, batch)
	ms, _ := srv.lookup("s")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			req := httptest.NewRequest(http.MethodPost, "/streams/s/points", bytes.NewReader(blob))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code == http.StatusAccepted {
				break
			}
			if rec.Code != http.StatusTooManyRequests {
				b.Fatalf("status %d", rec.Code)
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	for ms.pending.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkIngestHTTPShardedParallel is the sharded path under concurrent
// clients spread over several streams — the scenario the shards exist
// for: handlers only enqueue, so request goroutines never serialize on
// sampler locks.
func BenchmarkIngestHTTPShardedParallel(b *testing.B) {
	const batch = 256
	srv := New(1, WithIngestShards(4, 256))
	defer srv.Close()
	streams := []string{"s0", "s1", "s2", "s3"}
	for _, name := range streams {
		benchCreateStream(b, srv, name)
	}
	blob := benchIngestBody(b, batch)
	b.ReportAllocs()
	b.ResetTimer()
	var sid atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		name := streams[int(sid.Add(1))%len(streams)]
		path := "/streams/" + name + "/points"
		for pb.Next() {
			for {
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(blob))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code == http.StatusAccepted {
					break
				}
				if rec.Code != http.StatusTooManyRequests {
					b.Fatalf("status %d", rec.Code)
				}
				time.Sleep(10 * time.Microsecond)
			}
		}
	})
	for _, name := range streams {
		ms, _ := srv.lookup(name)
		for ms.pending.Load() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "points/s")
}
