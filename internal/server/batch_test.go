package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"biasedres/internal/client"
	"biasedres/internal/core"
	"biasedres/internal/wire"
)

// batchTracker follows every pooled batch buffer for one test: each must
// be released exactly once after it is handed out.
type batchTracker struct {
	mu             sync.Mutex
	out            map[*batchBuf]bool
	gets, releases int
}

// trackBatches installs a batchHook for the rest of t that fails t on a
// buffer released while not in use (a double release) or handed out while
// still in use (what a double release leads to).
func trackBatches(t *testing.T) *batchTracker {
	bt := &batchTracker{out: map[*batchBuf]bool{}}
	hook := func(b *batchBuf, released bool) {
		bt.mu.Lock()
		defer bt.mu.Unlock()
		if released {
			if !bt.out[b] {
				t.Errorf("batch buffer %p released while not in use: a double release", b)
			}
			delete(bt.out, b)
			bt.releases++
			return
		}
		if bt.out[b] {
			t.Errorf("batch buffer %p handed out while still in use", b)
		}
		bt.out[b] = true
		bt.gets++
	}
	batchHook.Store(&hook)
	t.Cleanup(func() { batchHook.Store(nil) })
	return bt
}

// expect fails t unless the tracker has seen gets buffers handed out and
// out of them still unreleased.
func (bt *batchTracker) expect(t *testing.T, what string, gets, out int) {
	t.Helper()
	bt.mu.Lock()
	defer bt.mu.Unlock()
	if bt.gets != gets || len(bt.out) != out || bt.releases != gets-out {
		t.Fatalf("%s: %d buffers handed out, %d released, %d in use; want %d, %d, %d",
			what, bt.gets, bt.releases, len(bt.out), gets, gets-out, out)
	}
}

// reusePoint is point id as both transports send it: its second value
// and its label are functions of the first, so a point whose values were
// overwritten by a later batch shows.
func reusePoint(id int) (vals []float64, label int) {
	return []float64{float64(id), 3*float64(id) + 1}, id % 7
}

// TestBatchBuffersReusedSafely: async (sharded) and synchronous
// (time-decay) streams fed over one wire connection and, concurrently,
// over HTTP, while the async workers are stalled so their batches sit in
// the queue as later frames and bodies reuse the listener's frame and the
// pooled batch buffers. Every point must apply intact, and every buffer
// must come back exactly once.
func TestBatchBuffersReusedSafely(t *testing.T) {
	srv, ts := newShardedServer(t, 2, 64)
	bt := trackBatches(t)
	names := []string{"a1", "a2", "td"}
	for _, name := range names[:2] {
		createStream(t, ts.URL, name, CreateRequest{Policy: "unbiased", Capacity: 1 << 16})
	}
	// Time-decay streams keep synchronous ingest; at this λ no resident
	// expires within the test.
	createStream(t, ts.URL, "td", CreateRequest{Policy: "timedecay", Lambda: 1e-12, Capacity: 1 << 16})
	var stalls []func()
	for _, name := range names[:2] {
		ms, _ := srv.lookup(name)
		stalls = append(stalls, stallSampler(ms))
	}
	unstall := sync.OnceFunc(func() {
		for _, u := range stalls {
			u()
		}
	})
	t.Cleanup(unstall)

	type totals struct{ n, sum int }
	var mu sync.Mutex
	want := map[string]*totals{}
	for _, name := range names {
		want[name] = &totals{}
	}
	sent := func(name string, first, n int) {
		mu.Lock()
		defer mu.Unlock()
		for id := first; id < first+n; id++ {
			want[name].n++
			want[name].sum += id
		}
	}

	wl, addr := startWireListener(t, srv)
	defer wl.Close()
	wc, err := client.DialWire(addr, client.WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // HTTP posts, ids from 1,000,000 up
		defer wg.Done()
		for k := 0; k < 30; k++ {
			name, first, n := names[k%3], 1_000_000+k*32, 32
			pts := make([]IngestPoint, n)
			for i := range pts {
				vals, label := reusePoint(first + i)
				pts[i] = IngestPoint{Values: vals, Label: &label}
			}
			body, _ := json.Marshal(IngestRequest{Points: pts})
			resp, err := http.Post(ts.URL+"/streams/"+name+"/points", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				t.Errorf("HTTP ingest into %s: status %d", name, resp.StatusCode)
				return
			}
			sent(name, first, n)
		}
	}()
	// Wire frames, ids from 0 up, through one reused client batch.
	pts := make([]client.Point, 64)
	for k := 0; k < 60; k++ {
		name, first := names[k%3], k*len(pts)
		for i := range pts {
			vals, label := reusePoint(first + i)
			pts[i] = client.Point{Values: vals, Label: &label}
		}
		if err := wc.Push(name, pts); err != nil {
			t.Fatalf("frame %d into %s: %v", k, name, err)
		}
		sent(name, first, len(pts))
	}
	wg.Wait()
	unstall()
	for _, name := range names[:2] {
		waitPending(t, srv, name)
	}

	for _, name := range names {
		ms, _ := srv.lookup(name)
		snap := ms.sm.AcquireSnapshot()
		got := totals{n: len(snap.Points)}
		for _, p := range snap.Points {
			id := int(p.Values[0])
			vals, label := reusePoint(id)
			if p.Values[1] != vals[1] || p.Label != label {
				t.Fatalf("%s: point %d arrived as %v label %d, sent %v label %d", name, p.Index, p.Values, p.Label, vals, label)
			}
			got.sum += id
		}
		if w := *want[name]; got != w || snap.T != uint64(w.n) {
			t.Errorf("%s: holds %d points summing to %d at t=%d; sent %d summing to %d", name, got.n, got.sum, snap.T, w.n, w.sum)
		}
	}
	bt.mu.Lock()
	gets := bt.gets
	bt.mu.Unlock()
	if gets != 60+30 {
		t.Errorf("%d batch buffers handed out for 90 batches", gets)
	}
	bt.expect(t, "after the queues drained", gets, 0)
}

// TestRefusedBatchReleasedOnce: a refused batch — a non-finite frame, a
// wrong-dimension body, a frame or body refused by a full queue — is
// released once, by admit; accepted queued batches stay with the shard
// until its worker applies them.
func TestRefusedBatchReleasedOnce(t *testing.T) {
	srv, ts := newShardedServer(t, 1, 1)
	bt := trackBatches(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	ms, _ := srv.lookup("s")

	f := wireTestFrame(4, 2)
	f.Name = []byte("s")
	f.Values[3] = math.NaN()
	if r := srv.IngestFrame(f); r.Status != wire.StatusError {
		t.Fatalf("NaN frame: %+v", r)
	}
	bt.expect(t, "after a NaN frame", 1, 0)
	if resp, _ := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: dimPoints(2, 3)}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed-dimension body: status %d", resp.StatusCode)
	}
	bt.expect(t, "after a mixed-dimension body", 2, 0)

	unstall := sync.OnceFunc(fillQueue(t, srv, ms))
	t.Cleanup(unstall)
	bt.expect(t, "with the queue full", 4, 2)
	if r := srv.IngestFrame(wireTestFrame(4, 2)); r.Status != wire.StatusError {
		t.Fatalf("frame for no stream: %+v", r)
	}
	bt.expect(t, "after a frame for no stream", 4, 2)
	f.Values[3] = 1
	if r := srv.IngestFrame(f); r.Status != wire.StatusBackpressure {
		t.Fatalf("frame into a full queue: %+v", r)
	}
	bt.expect(t, "after a NACKed frame", 5, 2)
	if resp, _ := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: floatVals(4)}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("body into a full queue: status %d", resp.StatusCode)
	}
	bt.expect(t, "after a 429 body", 6, 2)
	unstall()
	waitPending(t, srv, "s")
	bt.expect(t, "after the queue drained", 6, 0)
}

// TestWireValuesNotShared is TestIngestValuesNotShared for a wire frame:
// after one frame is applied, one retained point keeps only its own
// values alive, not the frame's.
func TestWireValuesNotShared(t *testing.T) {
	const n, dim = 64, 256 // 128 KiB of values, 2 KiB per point
	heap := func() uint64 {
		// Two cycles: the second frees what the first moved to sync.Pool
		// victim caches.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	f := wireTestFrame(n, dim)
	f.Name = []byte("s")
	srv := New(1)
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: n})
	before := heap()
	if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
		t.Fatalf("ingest: %+v", r)
	}
	var kept []float64
	ms, _ := srv.lookup("s")
	ms.sm.View(func(sm core.Sampler) {
		if len(sm.Points()) != n {
			t.Fatalf("sampler holds %d points, want all %d", len(sm.Points()), n)
		}
		for _, p := range sm.Points() {
			if cap(p.Values) != len(p.Values) {
				t.Errorf("point %d: Values cap %d, len %d", p.Index, cap(p.Values), len(p.Values))
			}
		}
		kept = sm.Points()[0].Values
	})
	ms = nil
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/streams/s", nil))
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", rec.Code)
	}
	retained := int64(heap()) - int64(before)
	runtime.KeepAlive(kept)
	runtime.KeepAlive(f)
	if retained > n*dim*8/2 {
		t.Fatalf("one retained point keeps %d bytes alive; the frame's values are %d", retained, n*dim*8)
	}
}
