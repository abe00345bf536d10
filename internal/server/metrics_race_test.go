package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// hammerReq drives one request straight through the handler stack; the
// hammer cares about races, not status codes, so anything the server can
// legitimately answer mid-churn is accepted by the caller.
func hammerReq(srv *Server, method, target string, body string) int {
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code
}

// TestMetricsScrapeRaceHammer is the regression test for the collectIngest
// race: the /metrics scrape used to read ms.shard and the queue depth with
// no lock while deletion and Close mutated the same state under qmu, and
// handleCreate never checked readiness, so a create racing Close could
// ingestWG.Add after Close's Wait and leak its shard worker. Run under
// -race (make ci does), this drives scrapes concurrently with stream
// create/ingest/delete and finally with Close itself.
func TestMetricsScrapeRaceHammer(t *testing.T) {
	srv := New(7, WithIngestShards(2, 4))
	if code := hammerReq(srv, http.MethodPut, "/streams/base",
		`{"policy":"variable","lambda":0.01,"capacity":32}`); code != http.StatusCreated {
		t.Fatalf("create base: %d", code)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	batch := `{"points":[{"values":[1,2]},{"values":[3,4]},{"values":[5,6]}]}`

	// Scrapers: hit collectIngest continuously, including while Close runs.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					hammerReq(srv, http.MethodGet, "/metrics", "")
				}
			}
		}()
	}

	// Churners: create a stream, ingest into it, delete it — over and over,
	// so scrapers constantly observe streams being born and torn down.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				name := fmt.Sprintf("churn-%d-%d", c, i)
				if code := hammerReq(srv, http.MethodPut, "/streams/"+name,
					`{"policy":"variable","lambda":0.01,"capacity":16}`); code != http.StatusCreated {
					continue // server already shutting down
				}
				for j := 0; j < 3; j++ {
					hammerReq(srv, http.MethodPost, "/streams/"+name+"/points", batch)
				}
				hammerReq(srv, http.MethodDelete, "/streams/"+name, "")
			}
		}(c)
	}

	// Steady ingester: keeps the long-lived stream's queue depth and
	// pending gauges moving while they are being scraped.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				hammerReq(srv, http.MethodPost, "/streams/base/points", batch)
			}
		}
	}()

	// Late creators: race stream creation against Close. Every create must
	// come back 201 (its shard then drained by Close) or 503 (refused by
	// the readiness check) — never a leaked worker.
	var lateCreated, lateRefused atomic.Int64
	// Close waits until every late creator has sent a create, so the race
	// is exercised on every run rather than only when the scheduler
	// happens to start the creators first.
	var started sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		started.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 1 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("late-%d-%d", c, i)
				switch code := hammerReq(srv, http.MethodPut, "/streams/"+name,
					`{"policy":"variable","lambda":0.01,"capacity":8}`); code {
				case http.StatusCreated:
					lateCreated.Add(1)
				case http.StatusServiceUnavailable:
					lateRefused.Add(1)
				default:
					t.Errorf("create %s: unexpected status %d", name, code)
				}
			}
		}(c)
	}

	started.Wait()
	srv.Close()
	close(stop)
	wg.Wait()

	// Close drained every shard worker (ingestWG.Wait returned — we are
	// here), so any create that won the race was fully torn down and any
	// that lost was refused; both counters moving is the interesting case,
	// but zero refusals just means Close won instantly, which is fine.
	if lateCreated.Load() == 0 && lateRefused.Load() == 0 {
		t.Fatal("late creators never ran; hammer did not exercise the create/Close race")
	}

	// A post-Close scrape must still answer coherently (no panic on closed
	// channels, no torn shard pointers).
	if code := hammerReq(srv, http.MethodGet, "/metrics", ""); code != http.StatusOK {
		t.Fatalf("post-Close scrape: %d", code)
	}
}
