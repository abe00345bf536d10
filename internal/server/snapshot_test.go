package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestQueryIngestHammer races ingest POSTs against every read endpoint
// and checks each /sample response is internally consistent: the reported
// probabilities match the response's own stream position t exactly, so a
// reader can never observe a snapshot assembled from two reservoir
// states. Run with -race.
func TestQueryIngestHammer(t *testing.T) {
	const lambda = 0.01
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "biased", Lambda: lambda})

	// Seed enough points that every query type has sample mass.
	seed := make([]IngestPoint, 100)
	for i := range seed {
		label := i % 3
		seed[i] = IngestPoint{Values: []float64{float64(i), float64(i % 10), 1}, Label: &label}
	}
	ingest(t, ts.URL, "s", seed)

	const writers, batches, batchLen = 4, 40, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				pts := make([]IngestPoint, batchLen)
				for j := range pts {
					label := (w + j) % 3
					pts[j] = IngestPoint{Values: []float64{float64(i), float64(j), 2}, Label: &label}
				}
				ingest(t, ts.URL, "s", pts)
			}
		}(w)
	}

	queries := []string{
		"/streams/s/query?type=count&h=50",
		"/streams/s/query?type=average&h=50",
		"/streams/s/query?type=classdist&h=50",
		"/streams/s/query?type=groupavg&h=50",
		"/streams/s/query?type=selectivity&h=50&dims=0&lo=0&hi=100",
		"/streams/s/query?type=quantile&h=50&dim=0&q=0.5",
	}
	stop := make(chan struct{})
	var readErr atomic.Value
	fail := func(format string, args ...any) {
		readErr.Store(fmt.Sprintf(format, args...))
	}
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := queries[i%len(queries)]
				resp, body := do(t, http.MethodGet, ts.URL+url, nil)
				if resp.StatusCode != http.StatusOK {
					fail("query %s: status %d body %v", url, resp.StatusCode, body)
					return
				}

				resp, body = do(t, http.MethodGet, ts.URL+"/streams/s/sample", nil)
				if resp.StatusCode != http.StatusOK {
					fail("sample: status %d", resp.StatusCode)
					return
				}
				tt := uint64(body["t"].(float64))
				for _, raw := range body["points"].([]any) {
					p := raw.(map[string]any)
					idx := uint64(p["index"].(float64))
					prob := p["prob"].(float64)
					if idx == 0 || idx > tt {
						fail("sample holds index %d newer than its own t %d", idx, tt)
						return
					}
					// The biased policy has p_in = 1, so prob must be
					// exactly e^{-λ(t-r)} for the response's own t.
					if want := math.Exp(-lambda * float64(tt-idx)); prob != want {
						fail("sample prob %v for index %d, want %v at t %d (torn snapshot)", prob, idx, want, tt)
						return
					}
				}

				if i%7 == 0 {
					if resp, _ := do(t, http.MethodGet, ts.URL+"/streams/s", nil); resp.StatusCode != http.StatusOK {
						fail("stats: status %d", resp.StatusCode)
						return
					}
					if resp, _ := do(t, http.MethodGet, ts.URL+"/streams/s/transfer", nil); resp.StatusCode != http.StatusOK {
						fail("transfer: status %d", resp.StatusCode)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	if msg := readErr.Load(); msg != nil {
		t.Fatal(msg)
	}

	_, body := do(t, http.MethodGet, ts.URL+"/streams/s", nil)
	if got, want := body["processed"].(float64), float64(100+writers*batches*batchLen); got != want {
		t.Fatalf("processed = %v, want %v", got, want)
	}
}

func TestSnapshotCacheMetricsExported(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	ingest(t, ts.URL, "s", []IngestPoint{{Values: []float64{1}}, {Values: []float64{2}}})

	// First read misses and rebuilds; the rest are cache hits.
	for i := 0; i < 3; i++ {
		if resp, _ := do(t, http.MethodGet, ts.URL+"/streams/s/sample", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("sample: status %d", resp.StatusCode)
		}
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	text := string(body["raw"].([]byte))
	for _, want := range []string{
		`biasedres_snapshot_cache_hits_total{stream="s"} 2`,
		`biasedres_snapshot_cache_misses_total{stream="s"} 1`,
		`biasedres_snapshot_cache_rebuilds_total{stream="s"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}
