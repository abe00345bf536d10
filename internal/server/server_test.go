package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"biasedres/internal/durable"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(1))
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(resp.Header.Get("Content-Type"), "json") && len(raw) > 0 {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	} else {
		decoded = map[string]any{"raw": raw}
	}
	return resp, decoded
}

func createStream(t *testing.T, base, name string, req CreateRequest) {
	t.Helper()
	resp, body := do(t, http.MethodPut, base+"/streams/"+name, req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d body %v", name, resp.StatusCode, body)
	}
}

func ingest(t *testing.T, base, name string, pts []IngestPoint) {
	t.Helper()
	resp, body := do(t, http.MethodPost, base+"/streams/"+name+"/points", IngestRequest{Points: pts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d body %v", resp.StatusCode, body)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	ingest(t, ts.URL, "s", []IngestPoint{{Values: []float64{1}}, {Values: []float64{2}}})
	resp, body := do(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if body["status"] != "ok" || body["streams"].(float64) != 1 || body["points"].(float64) != 2 {
		t.Fatalf("healthz body %v", body)
	}
}

func TestCreateListDelete(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "a", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 100})
	createStream(t, ts.URL, "b", CreateRequest{Policy: "unbiased", Capacity: 50})

	// Duplicate name conflicts.
	resp, _ := do(t, http.MethodPut, ts.URL+"/streams/a", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 10})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", resp.StatusCode)
	}
	// Bad policy rejected.
	resp, _ = do(t, http.MethodPut, ts.URL+"/streams/c", CreateRequest{Policy: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy: status %d", resp.StatusCode)
	}
	// Bad parameters rejected.
	resp, _ = do(t, http.MethodPut, ts.URL+"/streams/c", CreateRequest{Policy: "variable", Lambda: 0, Capacity: 10})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad lambda: status %d", resp.StatusCode)
	}

	_, body := do(t, http.MethodGet, ts.URL+"/streams", nil)
	streams := body["streams"].([]any)
	if len(streams) != 2 || streams[0] != "a" || streams[1] != "b" {
		t.Fatalf("list = %v", streams)
	}

	resp, _ = do(t, http.MethodDelete, ts.URL+"/streams/a", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodDelete, ts.URL+"/streams/a", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d", resp.StatusCode)
	}
}

func TestIngestValidation(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})

	resp, _ := do(t, http.MethodPost, ts.URL+"/streams/missing/points", IngestRequest{Points: []IngestPoint{{Values: []float64{1}}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing stream: status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty ingest: status %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/points", []byte("{garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", resp.StatusCode)
	}
	ingest(t, ts.URL, "s", []IngestPoint{{Values: []float64{1, 2}}})
	// Dimensionality is fixed by the first point.
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: []IngestPoint{{Values: []float64{1}}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dim mismatch: status %d", resp.StatusCode)
	}
}

func TestStatsAndSample(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 100})
	pts := make([]IngestPoint, 1000)
	label := 3
	for i := range pts {
		pts[i] = IngestPoint{Values: []float64{float64(i)}, Label: &label}
	}
	ingest(t, ts.URL, "s", pts)

	resp, stats := do(t, http.MethodGet, ts.URL+"/streams/s", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if stats["processed"].(float64) != 1000 {
		t.Fatalf("processed = %v", stats["processed"])
	}
	if stats["size"].(float64) == 0 || stats["size"].(float64) > 100 {
		t.Fatalf("size = %v", stats["size"])
	}

	resp, sample := do(t, http.MethodGet, ts.URL+"/streams/s/sample", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample: status %d", resp.StatusCode)
	}
	points := sample["points"].([]any)
	if len(points) == 0 {
		t.Fatal("empty sample")
	}
	first := points[0].(map[string]any)
	if first["prob"].(float64) <= 0 {
		t.Fatalf("sample point prob = %v", first["prob"])
	}
}

func TestQueries(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 500})
	// 5000 points: values uniform-ish, two labels 9:1.
	rng := xrand.New(3)
	batch := make([]IngestPoint, 5000)
	for i := range batch {
		label := 0
		if i%10 == 0 {
			label = 1
		}
		batch[i] = IngestPoint{Values: []float64{rng.Float64()}, Label: &label}
	}
	ingest(t, ts.URL, "s", batch)

	resp, body := do(t, http.MethodGet, ts.URL+"/streams/s/query?type=count&h=1000", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count: status %d body %v", resp.StatusCode, body)
	}
	if est := body["estimate"].(float64); math.Abs(est-1000) > 400 {
		t.Fatalf("count estimate %v, want ~1000", est)
	}
	if body["variance"].(float64) < 0 {
		t.Fatal("negative variance")
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/streams/s/query?type=average&h=1000", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("average: status %d body %v", resp.StatusCode, body)
	}
	avg := body["average"].([]any)
	if v := avg[0].(float64); v < 0.3 || v > 0.7 {
		t.Fatalf("average = %v", v)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/streams/s/query?type=classdist&h=1000", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classdist: status %d body %v", resp.StatusCode, body)
	}
	dist := body["distribution"].(map[string]any)
	if f := dist["0"].(float64); math.Abs(f-0.9) > 0.1 {
		t.Fatalf("class 0 fraction %v", f)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/streams/s/query?type=selectivity&h=1000&dims=0&lo=0&hi=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("selectivity: status %d body %v", resp.StatusCode, body)
	}
	if sel := body["selectivity"].(float64); math.Abs(sel-0.5) > 0.15 {
		t.Fatalf("selectivity %v", sel)
	}

	resp, body = do(t, http.MethodGet, ts.URL+"/streams/s/query?type=quantile&h=1000&dim=0&q=0.5", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quantile: status %d body %v", resp.StatusCode, body)
	}
	if med := body["quantile"].(float64); med < 0.25 || med > 0.75 {
		t.Fatalf("median %v", med)
	}

	// Error paths.
	for _, q := range []string{
		"type=unknown",
		"type=count&h=abc",
		"type=selectivity&h=10",          // missing rect
		"type=quantile&h=10&dim=0&q=2",   // bad q
		"type=quantile&h=10&dim=-1&q=.5", // bad dim
	} {
		resp, _ := do(t, http.MethodGet, ts.URL+"/streams/s/query?"+q, nil)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("query %q succeeded", q)
		}
	}
}

func TestTimeDecayStreamOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "td", CreateRequest{Policy: "timedecay", Lambda: 0.5, Capacity: 100})
	t1, t2 := 1.0, 2.0
	ingest(t, ts.URL, "td", []IngestPoint{
		{Values: []float64{1}, TS: &t1},
		{Values: []float64{2}, TS: &t2},
	})
	// Out-of-order timestamps are rejected.
	back := 0.5
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/td/points",
		IngestRequest{Points: []IngestPoint{{Values: []float64{3}, TS: &back}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-order ts: status %d body %v", resp.StatusCode, body)
	}
	// A long gap expires old residents.
	far := 1e6
	ingest(t, ts.URL, "td", []IngestPoint{{Values: []float64{4}, TS: &far}})
	resp, stats := do(t, http.MethodGet, ts.URL+"/streams/td", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	if size := stats["size"].(float64); size > 1 {
		t.Fatalf("stale residents survived the gap: size %v", size)
	}
}

func TestSnapshotRestoreOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	batch := make([]IngestPoint, 500)
	for i := range batch {
		batch[i] = IngestPoint{Values: []float64{float64(i)}}
	}
	ingest(t, ts.URL, "s", batch)

	blob := fetchTransfer(t, ts.URL, "s")

	// More ingestion mutates the stream; restore rolls it back.
	ingest(t, ts.URL, "s", batch)
	resp, restored := do(t, http.MethodPost, ts.URL+"/streams/s/restore", blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d body %v", resp.StatusCode, restored)
	}
	if restored["processed"].(float64) != 500 {
		t.Fatalf("restored processed = %v, want 500", restored["processed"])
	}
	// Garbage restore rejected.
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/restore", []byte("junk"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore: status %d", resp.StatusCode)
	}
}

// A restore must be a checkpoint of the stream's own configuration: one of
// another capacity or λ used to answer 200 and leave the stream reporting
// a config its sampler does not run. A variable snapshot re-encoded with a
// 2^38-point budget used to kill the process on decode.
func TestRestoreRefusesOtherConfig(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "src", CreateRequest{Policy: "variable", Lambda: 0.02, Capacity: 40})
	createStream(t, ts.URL, "dst", CreateRequest{Policy: "variable", Lambda: 0.05, Capacity: 10})
	batch := make([]IngestPoint, 300)
	for i := range batch {
		batch[i] = IngestPoint{Values: []float64{float64(i)}}
	}
	ingest(t, ts.URL, "src", batch)
	ingest(t, ts.URL, "dst", batch)
	own := exportState(t, ts.URL, "dst")
	// withBudget re-encodes dst's checkpoint with a variable snapshot of
	// another n_max and λ; gob matches fields by name, so a mirror of the
	// state struct will do.
	withBudget := func(nmax int, lambda float64) []byte {
		blob := own.Snapshot
		var st struct {
			Lambda                 float64
			Nmax                   int
			PIn, TargetPIn, Reduce float64
			T, Admitted            uint64
			Phases                 int
			Pts                    []stream.Point
			RNG                    []byte
		}
		if err := gob.NewDecoder(bytes.NewReader(blob[1:])).Decode(&st); err != nil {
			t.Fatal(err)
		}
		st.Nmax, st.Lambda = nmax, lambda
		var buf bytes.Buffer
		buf.WriteByte(blob[0])
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		ck := own
		ck.Snapshot = buf.Bytes()
		data, err := durable.EncodeCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, c := range []struct {
		name string
		blob []byte
	}{
		{"other config", fetchTransfer(t, ts.URL, "src")},
		{"budget 2^38", withBudget(1<<38, 0.05)},
		{"budget 2^38 at a tiny λ", withBudget(1<<38, 1e-13)},
	} {
		if resp, body := do(t, http.MethodPost, ts.URL+"/streams/dst/restore", c.blob); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: restore answered %d %v, want 400", c.name, resp.StatusCode, body)
		}
	}
	resp, body := do(t, http.MethodGet, ts.URL+"/streams/dst", nil)
	if resp.StatusCode != http.StatusOK || body["capacity"].(float64) != 10 || body["lambda"].(float64) != 0.05 {
		t.Fatalf("dst after refused restores: status %d %v", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodPost, ts.URL+"/streams/dst/restore", fetchTransfer(t, ts.URL, "dst")); resp.StatusCode != http.StatusOK {
		t.Fatalf("own checkpoint: restore answered %d %v", resp.StatusCode, body)
	}
}

// Regression test: handleRestore used to leave ms.dim at its pre-restore
// value, so restoring a checkpoint into a fresh stream (dim 0) made
// average/groupavg return 409 "stream has no points yet", and ingesting
// points of a different dimensionality afterwards silently switched the
// stream's shape. The dim must come with the restored checkpoint.
func TestRestoreRecoversDimension(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "orig", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	batch := make([]IngestPoint, 500)
	for i := range batch {
		batch[i] = IngestPoint{Values: []float64{float64(i), float64(2 * i)}}
	}
	ingest(t, ts.URL, "orig", batch)

	resp, body := do(t, http.MethodGet, ts.URL+"/streams/orig/query?type=average&h=100", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("average on original: status %d body %v", resp.StatusCode, body)
	}
	origAvg := body["average"].([]any)

	blob := fetchTransfer(t, ts.URL, "orig")

	// Restore into a brand-new stream that has never seen a point.
	createStream(t, ts.URL, "clone", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	resp, body = do(t, http.MethodPost, ts.URL+"/streams/clone/restore", blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d body %v", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodGet, ts.URL+"/streams/clone/query?type=average&h=100", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("average after restore: status %d body %v (dim lost)", resp.StatusCode, body)
	}
	cloneAvg := body["average"].([]any)
	if len(cloneAvg) != len(origAvg) {
		t.Fatalf("restored average has %d dims, original %d", len(cloneAvg), len(origAvg))
	}
	for i := range origAvg {
		if cloneAvg[i].(float64) != origAvg[i].(float64) {
			t.Fatalf("restored average %v != original %v", cloneAvg, origAvg)
		}
	}
	// Stats report the recovered dimensionality.
	_, stats := do(t, http.MethodGet, ts.URL+"/streams/clone", nil)
	if stats["dim"].(float64) != 2 {
		t.Fatalf("restored dim = %v, want 2", stats["dim"])
	}
	// And subsequent ingests cannot switch it.
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/clone/points",
		IngestRequest{Points: []IngestPoint{{Values: []float64{1}}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1-dim ingest into restored 2-dim stream: status %d, want 400", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/clone/points",
		IngestRequest{Points: []IngestPoint{{Values: []float64{1, 2}}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("2-dim ingest into restored stream: status %d", resp.StatusCode)
	}
}

// A rejected restore must leave the live sampler untouched.
func TestRestoreFailureLeavesStreamIntact(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	ingest(t, ts.URL, "s", []IngestPoint{{Values: []float64{1}}, {Values: []float64{2}}})
	resp, _ := do(t, http.MethodPost, ts.URL+"/streams/s/restore", []byte("garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore: status %d", resp.StatusCode)
	}
	_, stats := do(t, http.MethodGet, ts.URL+"/streams/s", nil)
	if stats["processed"].(float64) != 2 || stats["dim"].(float64) != 1 {
		t.Fatalf("stream corrupted by failed restore: %v", stats)
	}
}

// Regression test: a mid-batch bad timestamp used to apply the leading
// points and return a bare 400. Timestamps are now validated before any
// mutation, so a rejected batch leaves the stream exactly as it was.
func TestIngestBadTimestampBatchAtomic(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "td", CreateRequest{Policy: "timedecay", Lambda: 0.1, Capacity: 100})
	t1, t2 := 1.0, 2.0
	ingest(t, ts.URL, "td", []IngestPoint{{Values: []float64{1}, TS: &t1}, {Values: []float64{2}, TS: &t2}})

	// ts=3 is fine, ts=1.5 regresses below it: the whole batch must be
	// rejected with nothing applied.
	t3, bad := 3.0, 1.5
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/td/points",
		IngestRequest{Points: []IngestPoint{
			{Values: []float64{3}, TS: &t3},
			{Values: []float64{4}, TS: &bad},
		}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-timestamp batch: status %d body %v", resp.StatusCode, body)
	}
	_, stats := do(t, http.MethodGet, ts.URL+"/streams/td", nil)
	if stats["processed"].(float64) != 2 {
		t.Fatalf("partial apply: processed = %v, want 2", stats["processed"])
	}

	// A timestamp older than the stream clock is rejected even as the
	// batch head.
	old := 0.5
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/td/points",
		IngestRequest{Points: []IngestPoint{{Values: []float64{5}, TS: &old}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale timestamp: status %d", resp.StatusCode)
	}

	// Untimestamped points advance the clock one unit each; a later
	// timestamp inside the batch must respect the advanced clock.
	// Clock is 2: nil moves it to 3, so ts=2.5 is stale.
	mid := 2.5
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/td/points",
		IngestRequest{Points: []IngestPoint{
			{Values: []float64{6}},
			{Values: []float64{7}, TS: &mid},
		}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("timestamp behind simulated clock: status %d", resp.StatusCode)
	}
	_, stats = do(t, http.MethodGet, ts.URL+"/streams/td", nil)
	if stats["processed"].(float64) != 2 {
		t.Fatalf("partial apply after clock-simulation batch: processed = %v, want 2", stats["processed"])
	}

	// The valid prefix of those rejected batches still ingests cleanly
	// when resubmitted alone.
	ingest(t, ts.URL, "td", []IngestPoint{{Values: []float64{3}, TS: &t3}})
	_, stats = do(t, http.MethodGet, ts.URL+"/streams/td", nil)
	if stats["processed"].(float64) != 3 {
		t.Fatalf("processed = %v, want 3", stats["processed"])
	}
}

// A first batch with internally inconsistent dimensions must not pin the
// stream's dimensionality.
func TestIngestRejectedBatchDoesNotPinDim(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	resp, _ := do(t, http.MethodPost, ts.URL+"/streams/s/points",
		IngestRequest{Points: []IngestPoint{{Values: []float64{1, 2}}, {Values: []float64{3}}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed-dim batch: status %d", resp.StatusCode)
	}
	// The stream is still unshaped: a 3-dim batch is acceptable.
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/points",
		IngestRequest{Points: []IngestPoint{{Values: []float64{1, 2, 3}}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("3-dim batch after rejected batch: status %d (dim wrongly pinned)", resp.StatusCode)
	}
}

func TestConcurrentIngestAndQuery(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 100})
	ingest(t, ts.URL, "s", []IngestPoint{{Values: []float64{0}}})
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				r, _ := do(t, http.MethodPost, ts.URL+"/streams/s/points",
					IngestRequest{Points: []IngestPoint{{Values: []float64{float64(i)}}}})
				if r.StatusCode != http.StatusOK {
					done <- fmt.Errorf("ingest status %d", r.StatusCode)
					return
				}
			}
			done <- nil
		}()
		go func() {
			for i := 0; i < 50; i++ {
				r, _ := do(t, http.MethodGet, ts.URL+"/streams/s/query?type=count&h=100", nil)
				if r.StatusCode != http.StatusOK && r.StatusCode != http.StatusConflict {
					done <- fmt.Errorf("query status %d", r.StatusCode)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
