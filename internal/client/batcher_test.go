package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"biasedres/internal/httpapi"
	"biasedres/internal/server"
)

// newShardedPair returns a client against a server running async sharded
// ingest.
func newShardedPair(t *testing.T, workers, queue int) (*Client, *server.Server) {
	t.Helper()
	srv := server.New(1, server.WithIngestShards(workers, queue))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func waitProcessed(t *testing.T, c *Client, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Processed == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream %q processed %d, want %d", name, st.Processed, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// The batcher must flush on size: every point Added shows up on the server
// with no Flush calls, and intermediate buffers never exceed FlushSize.
func TestBatcherFlushOnSize(t *testing.T) {
	c, _ := newShardedPair(t, 2, 64)
	if err := c.CreateStream("s", StreamConfig{Policy: "variable", Lambda: 1e-2, Capacity: 50}); err != nil {
		t.Fatal(err)
	}
	b := c.NewBatcher("s", BatcherConfig{FlushSize: 10, FlushInterval: time.Hour})
	const total = 95
	for i := 0; i < total; i++ {
		if err := b.Add(Point{Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Len(); got != 5 {
		t.Fatalf("buffered %d points, want 5 (size-triggered flushes took the rest)", got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, c, "s", total)
	if err := b.Add(Point{Values: []float64{1}}); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("Add after Close: %v, want ErrBatcherClosed", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// The batcher must flush on the interval: a buffer below FlushSize still
// reaches the server once FlushInterval elapses.
func TestBatcherFlushOnInterval(t *testing.T) {
	c, _ := newShardedPair(t, 2, 64)
	if err := c.CreateStream("s", StreamConfig{Policy: "variable", Lambda: 1e-2, Capacity: 50}); err != nil {
		t.Fatal(err)
	}
	b := c.NewBatcher("s", BatcherConfig{FlushSize: 1 << 20, FlushInterval: 5 * time.Millisecond})
	defer b.Close()
	for i := 0; i < 7; i++ {
		if err := b.Add(Point{Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	waitProcessed(t, c, "s", 7)
}

// Concurrent producers sharing one batcher must lose nothing.
func TestBatcherConcurrent(t *testing.T) {
	c, _ := newShardedPair(t, 4, 64)
	if err := c.CreateStream("s", StreamConfig{Policy: "variable", Lambda: 1e-2, Capacity: 50}); err != nil {
		t.Fatal(err)
	}
	b := c.NewBatcher("s", BatcherConfig{FlushSize: 32, FlushInterval: 10 * time.Millisecond})
	const producers, per = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := b.Add(Point{Values: []float64{float64(p*per + i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, c, "s", producers*per)
}

// Against a tiny queue the batcher must survive backpressure by honoring
// Retry-After and resending; every accepted point is applied exactly once.
func TestBatcherRetriesBackpressure(t *testing.T) {
	c, _ := newShardedPair(t, 1, 1)
	if err := c.CreateStream("s", StreamConfig{Policy: "variable", Lambda: 1e-2, Capacity: 50}); err != nil {
		t.Fatal(err)
	}
	b := c.NewBatcher("s", BatcherConfig{
		FlushSize:     8,
		FlushInterval: time.Hour,
		MaxRetries:    100,
		RetryBackoff:  time.Millisecond,
	})
	const total = 400
	for i := 0; i < total; i++ {
		if err := b.Add(Point{Values: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, c, "s", total)
}

// A non-429 failure must surface to the caller, not spin the retry loop.
func TestBatcherSurfacesHardErrors(t *testing.T) {
	c, _ := newShardedPair(t, 1, 4)
	// No stream created: pushes fail with 404.
	b := c.NewBatcher("missing", BatcherConfig{FlushSize: 2, FlushInterval: time.Hour})
	defer b.Close()
	if err := b.Add(Point{Values: []float64{1}}); err != nil {
		t.Fatalf("buffered add failed: %v", err)
	}
	err := b.Add(Point{Values: []float64{2}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("flush to missing stream: %v, want 404 APIError", err)
	}
}

// The 429 response must carry its Retry-After hint into APIError. The
// handler answers what a data node's ingest route answers on a full
// queue — Retry-After "1" and a JSON error body — so the 429 is certain
// rather than a race against the node's worker.
func TestAPIErrorRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		httpapi.Error(w, http.StatusTooManyRequests, "ingest queue for stream %q is full (%d batches); retry later", "s", 1)
	}))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Push("s", []Point{{Values: []float64{1}}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("push into a full queue: %v, want a 429 APIError", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("429 APIError.RetryAfter = %v, want the header's 1s", apiErr.RetryAfter)
	}
	if !strings.Contains(apiErr.Error(), "queue") || fmt.Sprint(apiErr) != apiErr.Error() {
		t.Fatalf("error text %q does not carry the server's message", apiErr.Error())
	}
}

// TestRetryWaitBounds: the no-Retry-After backoff doubles per attempt,
// stays inside the jitter window [w/2, w], and caps at MaxRetryBackoff.
func TestRetryWaitBounds(t *testing.T) {
	cfg := BatcherConfig{
		RetryBackoff:    20 * time.Millisecond,
		MaxRetryBackoff: 100 * time.Millisecond,
	}.withDefaults()
	expected := []time.Duration{
		20 * time.Millisecond,  // attempt 0
		40 * time.Millisecond,  // attempt 1
		80 * time.Millisecond,  // attempt 2
		100 * time.Millisecond, // attempt 3 — capped
		100 * time.Millisecond, // attempt 9 — still capped
	}
	attempts := []int{0, 1, 2, 3, 9}
	for i, attempt := range attempts {
		w := expected[i]
		sawLow, sawHigh := false, false
		for trial := 0; trial < 200; trial++ {
			got := cfg.retryWait(attempt)
			if got < w/2 || got > w {
				t.Fatalf("attempt %d: wait %v outside [%v, %v]", attempt, got, w/2, w)
			}
			if got < w*3/4 {
				sawLow = true
			} else {
				sawHigh = true
			}
		}
		if !sawLow || !sawHigh {
			t.Errorf("attempt %d: 200 draws never spread across the jitter window (low=%v high=%v)",
				attempt, sawLow, sawHigh)
		}
	}

	// Defaults: base 50ms, cap 2s; a cap below the base is raised to it.
	def := BatcherConfig{}.withDefaults()
	if def.RetryBackoff != 50*time.Millisecond || def.MaxRetryBackoff != 2*time.Second {
		t.Fatalf("defaults = %v/%v", def.RetryBackoff, def.MaxRetryBackoff)
	}
	inv := BatcherConfig{RetryBackoff: time.Second, MaxRetryBackoff: time.Millisecond}.withDefaults()
	if inv.MaxRetryBackoff != time.Second {
		t.Fatalf("inverted cap not raised: %v", inv.MaxRetryBackoff)
	}
}
