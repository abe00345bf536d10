package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"biasedres/internal/core"
)

// newShardedServer returns a server with async ingest plus its test
// listener; Close is hooked into cleanup after the listener stops.
func newShardedServer(t *testing.T, workers, queue int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(1, WithIngestShards(workers, queue))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func floatVals(n int) []IngestPoint {
	pts := make([]IngestPoint, n)
	for i := range pts {
		pts[i] = IngestPoint{Values: []float64{float64(i), float64(n - i)}}
	}
	return pts
}

// waitPending polls until the named stream's queue has fully drained.
func waitPending(t *testing.T, srv *Server, name string) {
	t.Helper()
	ms, ok := srv.lookup(name)
	if !ok {
		t.Fatalf("stream %q not found", name)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ms.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream %q still has %d pending points", name, ms.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// Async ingest must accept batches with 202, then apply every point on the
// stream's worker: processed counts converge to exactly the accepted total
// and the reservoir respects its capacity.
func TestShardedIngestAppliesEverything(t *testing.T) {
	srv, ts := newShardedServer(t, 4, 64)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})

	const batches, per = 20, 32
	for i := 0; i < batches; i++ {
		resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: floatVals(per)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch %d: status %d body %v", i, resp.StatusCode, body)
		}
		if q, _ := body["queued"].(float64); int(q) != per {
			t.Fatalf("batch %d: queued %v, want %d", i, body["queued"], per)
		}
	}
	waitPending(t, srv, "s")

	resp, body := do(t, http.MethodGet, ts.URL+"/streams/s", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if got := int(body["processed"].(float64)); got != batches*per {
		t.Fatalf("processed = %d, want %d", got, batches*per)
	}
	if got := int(body["size"].(float64)); got > 50 {
		t.Fatalf("reservoir size %d exceeds capacity 50", got)
	}
	if got := int(body["pending"].(float64)); got != 0 {
		t.Fatalf("pending = %d after drain, want 0", got)
	}
}

// The sharded path under -race: N producer goroutines fan batches out over
// M streams; after the queues drain, every stream must have processed
// exactly what was accepted (202) and no reservoir may exceed its budget.
// Producers back off and retry on 429, so the test also exercises the
// backpressure path under contention.
func TestShardedIngestConcurrent(t *testing.T) {
	srv, ts := newShardedServer(t, 4, 8)

	const (
		streams   = 6
		producers = 4 // per stream
		batches   = 25
		per       = 16
	)
	names := make([]string, streams)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
		createStream(t, ts.URL, names[i], CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 40})
	}

	var wg sync.WaitGroup
	var accepted [streams]int64
	var acceptedMu sync.Mutex
	for si := 0; si < streams; si++ {
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				sent := 0
				for sent < batches {
					resp, body := do(t, http.MethodPost,
						ts.URL+"/streams/"+names[si]+"/points", IngestRequest{Points: floatVals(per)})
					switch resp.StatusCode {
					case http.StatusAccepted:
						sent++
					case http.StatusTooManyRequests:
						if resp.Header.Get("Retry-After") == "" {
							t.Errorf("429 without Retry-After")
							return
						}
						time.Sleep(2 * time.Millisecond)
					default:
						t.Errorf("stream %s: status %d body %v", names[si], resp.StatusCode, body)
						return
					}
				}
				acceptedMu.Lock()
				accepted[si] += int64(sent * per)
				acceptedMu.Unlock()
			}(si)
		}
	}
	wg.Wait()

	for si, name := range names {
		waitPending(t, srv, name)
		resp, body := do(t, http.MethodGet, ts.URL+"/streams/"+name, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats %s: status %d", name, resp.StatusCode)
		}
		if got := int64(body["processed"].(float64)); got != accepted[si] {
			t.Errorf("stream %s processed %d points, accepted %d", name, got, accepted[si])
		}
		if got := int(body["size"].(float64)); got > 40 {
			t.Errorf("stream %s reservoir size %d exceeds capacity 40", name, got)
		}
	}
}

// A full queue must reject the batch with 429 + Retry-After and consume
// nothing: no arrival indices, no sampler state, no pending count. The
// worker is deterministically stalled by holding the sampler lock from
// the test (white-box), so the queue can be filled exactly.
func TestShardedIngestBackpressureNoPartialApply(t *testing.T) {
	srv, ts := newShardedServer(t, 1, 1)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	ms, ok := srv.lookup("s")
	if !ok {
		t.Fatal("stream not registered")
	}

	// Stall the worker: it will take the first batch off the queue and
	// block acquiring the sampler lock, leaving queue capacity 1 for the
	// second.
	unstall := stallSampler(ms)
	post := func() (*http.Response, map[string]any) {
		return do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: floatVals(4)})
	}
	if resp, body := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch: status %d body %v", resp.StatusCode, body)
	}
	// Wait for the worker to pick batch 1 up (queue empties) before
	// filling the queue again.
	deadline := time.Now().Add(5 * time.Second)
	for len(ms.shard.ch) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second batch: status %d body %v", resp.StatusCode, body)
	}

	nextBefore := ms.next
	pendingBefore := ms.pending.Load()
	resp, body := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third batch: status %d body %v, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "queue") {
		t.Errorf("429 body %v does not mention the queue", body)
	}
	if ms.next != nextBefore {
		t.Errorf("rejected batch consumed arrival indices: next %d -> %d", nextBefore, ms.next)
	}
	if got := ms.pending.Load(); got != pendingBefore {
		t.Errorf("rejected batch changed pending count: %d -> %d", pendingBefore, got)
	}
	unstall()

	waitPending(t, srv, "s")
	resp, sbody := do(t, http.MethodGet, ts.URL+"/streams/s", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	// Only the two accepted batches may ever reach the sampler.
	if got := int(sbody["processed"].(float64)); got != 8 {
		t.Errorf("processed = %d, want 8 (two accepted batches of 4)", got)
	}
}

// Restore must be refused while batches are still queued: replaying them
// onto restored state would corrupt arrival indexing.
func TestShardedRestoreRequiresQuiescedStream(t *testing.T) {
	srv, ts := newShardedServer(t, 1, 4)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	ingestAsync := func(n int) {
		resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: floatVals(n)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest: status %d body %v", resp.StatusCode, body)
		}
	}
	ingestAsync(10)
	waitPending(t, srv, "s")
	blob := fetchTransfer(t, ts.URL, "s")

	ms, _ := srv.lookup("s")
	unstall := stallSampler(ms) // stall the worker so pending stays non-zero
	ingestAsync(10)
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/restore", blob)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("restore with pending points: status %d body %v, want 409", resp.StatusCode, body)
	}
	unstall()

	waitPending(t, srv, "s")
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/restore", blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore on quiesced stream: status %d", resp.StatusCode)
	}
}

// Close must drain accepted batches before stopping workers, and later
// ingest attempts on closed streams must see 503.
func TestShardedCloseDrains(t *testing.T) {
	srv := New(1, WithIngestShards(2, 64))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	const total = 30 * 16
	for i := 0; i < 30; i++ {
		resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: floatVals(16)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d body %v", i, resp.StatusCode, body)
		}
	}
	srv.Close()
	ms, _ := srv.lookup("s")
	processed := ms.sm.Processed()
	if processed != total {
		t.Fatalf("after Close: processed = %d, want %d", processed, total)
	}
	resp, _ := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: floatVals(4)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close: status %d, want 503", resp.StatusCode)
	}
}

// Deleting a stream stops its worker; the server survives and other
// streams keep ingesting.
func TestShardedDeleteStopsWorker(t *testing.T) {
	srv, ts := newShardedServer(t, 2, 16)
	createStream(t, ts.URL, "a", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 20})
	createStream(t, ts.URL, "b", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 20})
	resp, _ := do(t, http.MethodDelete, ts.URL+"/streams/a", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/b/points", IngestRequest{Points: floatVals(8)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after delete: status %d body %v", resp.StatusCode, body)
	}
	waitPending(t, srv, "b")
}

// Time-decay streams must keep the synchronous path even on a sharded
// server: their timestamp validation reads the sampler clock.
func TestShardedTimeDecayStaysSynchronous(t *testing.T) {
	_, ts := newShardedServer(t, 2, 16)
	createStream(t, ts.URL, "td", CreateRequest{Policy: "timedecay", Lambda: 1e-2, Capacity: 20})
	tsv := 5.0
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/td/points",
		IngestRequest{Points: []IngestPoint{{Values: []float64{1}, TS: &tsv}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timedecay ingest: status %d body %v, want synchronous 200", resp.StatusCode, body)
	}
	if _, ok := body["processed"]; !ok {
		t.Fatalf("timedecay ingest body %v missing processed (sync contract)", body)
	}
}

// The ingest metrics must appear on /metrics: queue gauges, batch-size
// histogram and the rejected counter after a backpressure event.
func TestShardedIngestMetrics(t *testing.T) {
	srv, ts := newShardedServer(t, 1, 1)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	ms, _ := srv.lookup("s")

	unstall := stallSampler(ms)
	for i := 0; i < 3; i++ { // 1 in-flight + 1 queued + 1 rejected
		do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: floatVals(4)})
	}
	unstall()
	waitPending(t, srv, "s")

	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body["raw"].([]byte))
	for _, want := range []string{
		`biasedres_ingest_queue_depth{stream="s"} 0`,
		`biasedres_ingest_pending_points{stream="s"} 0`,
		"biasedres_ingest_queue_capacity_batches 1",
		"biasedres_ingest_workers_busy 0",
		`biasedres_ingest_rejected_batches_total{stream="s"} 1`,
		"biasedres_ingest_batch_points_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// stallSampler holds the stream's sampler lock from the test (white-box)
// until the returned function is called, stalling the shard worker and
// every synchronous apply.
func stallSampler(ms *managedStream) (unstall func()) {
	held, release := make(chan struct{}), make(chan struct{})
	go ms.sm.View(func(core.Sampler) {
		close(held)
		<-release
	})
	<-held
	return func() { close(release) }
}
