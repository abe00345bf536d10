package server

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"biasedres/internal/models"
	"biasedres/internal/stream"
	"biasedres/internal/wire"
)

func labeledPoints(t *testing.T, gen *stream.RegimeGenerator, n int) []IngestPoint {
	t.Helper()
	pts := make([]IngestPoint, 0, n)
	for i := 0; i < n; i++ {
		p, ok := gen.Next()
		if !ok {
			break
		}
		label := p.Label
		pts = append(pts, IngestPoint{Values: p.Values, Label: &label})
	}
	return pts
}

func modelStats(t *testing.T, base, name string) map[string]any {
	t.Helper()
	resp, body := do(t, http.MethodGet, base+"/streams/"+name+"/model", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model stats: status %d body %v", resp.StatusCode, body)
	}
	return body
}

func TestModelLifecycle(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "ttbs", Lambda: 1e-2, Capacity: 50})

	// No model yet: stats and eval 404, delete 404.
	for _, path := range []string{"/streams/s/model", "/streams/s/model/eval"} {
		resp, _ := do(t, http.MethodGet, ts.URL+path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without model: status %d", path, resp.StatusCode)
		}
	}
	resp, _ := do(t, http.MethodDelete, ts.URL+"/streams/s/model", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete without model: status %d", resp.StatusCode)
	}

	// The stream has no dimensionality yet and the request carries none,
	// or one above the largest a point may have.
	for _, dim := range []int{0, wire.MaxDim + 1} {
		resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/model", models.Config{Dim: dim})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("model of dim %d on dimensionless stream: status %d", dim, resp.StatusCode)
		}
	}

	ingest(t, ts.URL, "s", floatPoints(50, 0))
	// A model's dim must be the stream's: each drift check walks dim
	// dimensions of every resident.
	for _, dim := range []int{2, 1 << 20} {
		resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/model", models.Config{Dim: dim, ShortH: 50, LongH: 500})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("model of dim %d on a 1-dim stream: status %d", dim, resp.StatusCode)
		}
	}
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/model", models.Config{ShortH: 50, LongH: 500})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("model create: status %d body %v", resp.StatusCode, body)
	}
	if body["k"].(float64) != 1 || body["dim"].(float64) != 1 {
		t.Fatalf("model create defaults: %v", body)
	}
	if body["train_size"].(float64) == 0 {
		t.Fatalf("model not trained from existing reservoir: %v", body)
	}

	// Second attach conflicts.
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/model", models.Config{ShortH: 50, LongH: 500})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double attach: status %d", resp.StatusCode)
	}

	// Ingest scores prequentially; stats and eval reflect it.
	ingest(t, ts.URL, "s", floatPoints(100, 50))
	st := modelStats(t, ts.URL, "s")
	if st["seen"].(float64) != 100 || st["scored"].(float64) == 0 {
		t.Fatalf("model did not score ingested points: %v", st)
	}
	resp, ev := do(t, http.MethodGet, ts.URL+"/streams/s/model/eval", nil)
	if resp.StatusCode != http.StatusOK || ev["confusion"] == nil {
		t.Fatalf("model eval: status %d body %v", resp.StatusCode, ev)
	}

	// The metrics family is exported while the model is attached.
	samples := scrape(t, ts.URL)
	for _, m := range []string{
		`biasedres_model_train_size{stream="s"}`,
		`biasedres_model_staleness_points{stream="s"}`,
		`biasedres_model_scored_points_total{stream="s"}`,
		`biasedres_model_retrains_total{stream="s"}`,
	} {
		if _, ok := samples[m]; !ok {
			t.Errorf("metric %s missing from /metrics", m)
		}
	}

	resp, _ = do(t, http.MethodDelete, ts.URL+"/streams/s/model", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("model delete: status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, ts.URL+"/streams/s/model", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("model survives delete: status %d", resp.StatusCode)
	}
	// Ingest still works with the model gone.
	ingest(t, ts.URL, "s", floatPoints(10, 150))
}

// A synthetic concept-drift stream driven through the HTTP ingest path must
// fire the drift detector, retrain the model, and recover accuracy.
func TestModelDriftRetrainOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "ttbs", Lambda: 1e-2, Capacity: 80})
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/model", models.Config{
		Dim: 2, ShortH: 100, LongH: 1500, Threshold: 4, CheckEvery: 50, MinGap: 200, Window: 100,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("model create: status %d body %v", resp.StatusCode, body)
	}

	gen, err := stream.NewRegimeGenerator(2, 2500, 2.0, 0.5, 5000, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ingest(t, ts.URL, "s", labeledPoints(t, gen, 25))
	}

	st := modelStats(t, ts.URL, "s")
	if st["seen"].(float64) != 5000 {
		t.Fatalf("seen %v, want 5000", st["seen"])
	}
	if st["drift_retrains"].(float64) == 0 {
		t.Fatalf("drift detector never retrained across the regime shift: %v", st)
	}
	if !st["window_ready"].(bool) || st["window_accuracy"].(float64) < 0.6 {
		t.Fatalf("model did not recover accuracy after retrain: %v", st)
	}
	if st["staleness"].(float64) >= 5000 {
		t.Fatalf("training set never refreshed: %v", st)
	}
}

// Model routes must survive concurrent ingest and querying; run under
// -race via `make test-models`.
func TestModelConcurrentHammer(t *testing.T) {
	srv := New(1, WithIngestShards(4, 64))
	t.Cleanup(srv.Close)
	ts := newTestServerFor(t, srv)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "rtbs", Lambda: 1e-2, Capacity: 60})
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: floatPoints(40, 0)})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest: status %d body %v", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodPost, ts.URL+"/streams/s/model", models.Config{ShortH: 50, LongH: 500, CheckEvery: 20})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("model create: status %d body %v", resp.StatusCode, body)
	}

	const writers, rounds = 4, 30
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pts := make([]IngestPoint, 20)
				for j := range pts {
					label := (w + j) % 3
					pts[j] = IngestPoint{Values: []float64{float64(w*rounds + i)}, Label: &label}
				}
				resp, _ := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: pts})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted &&
					resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("writer %d: ingest status %d", w, resp.StatusCode)
					return
				}
			}
		}()
	}
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, path := range []string{
					"/streams/s/model", "/streams/s/model/eval",
					"/streams/s/query?type=count&h=50", "/streams/s/sample", "/metrics",
				} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("reader: GET %s status %d", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	srv.Close() // drain the async lanes so every accepted batch is observed

	st := modelStats(t, ts.URL, "s")
	if st["seen"].(float64) == 0 || st["scored"].(float64) == 0 {
		t.Fatalf("model observed nothing under the hammer: %v", st)
	}
}

func newTestServerFor(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// The model hook also rides the synchronous time-decay ingest branch.
func TestModelOnTimeDecayStream(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "td", CreateRequest{Policy: "timedecay", Lambda: 0.05, Capacity: 40})
	ingest(t, ts.URL, "td", floatPoints(30, 0))
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/td/model", models.Config{ShortH: 20, LongH: 200})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("model create: status %d body %v", resp.StatusCode, body)
	}
	ingest(t, ts.URL, "td", floatPoints(50, 30))
	st := modelStats(t, ts.URL, "td")
	if st["seen"].(float64) != 50 || st["scored"].(float64) == 0 {
		t.Fatalf("time-decay stream model stats: %v", st)
	}
}
