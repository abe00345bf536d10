package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biasedres/internal/durable"
	"biasedres/internal/wire"
)

// quietDurability keeps the background loops out of the way: both tickers
// fire on hour scale, so every sync and checkpoint in these tests is an
// explicit call and the assertions are deterministic.
var quietDurability = DurabilityConfig{
	CheckpointInterval:  time.Hour,
	CheckpointMinOps:    1,
	JournalSyncInterval: time.Hour,
}

// newDurableServer builds a server persisting to fs under "data". The
// caller owns Close (the last deferred Close wins; double Close is safe).
func newDurableServer(t *testing.T, fs durable.FS, opts ...Option) (*httptest.Server, *Server, *durable.Store) {
	t.Helper()
	store, err := durable.Open(fs, "data")
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	srv := New(1, append([]Option{WithDurability(store, quietDurability)}, opts...)...)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv, store
}

func streamProcessed(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, body := do(t, http.MethodGet, base+"/streams/"+name, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats %s: status %d body %v", name, resp.StatusCode, body)
	}
	return body["processed"].(float64)
}

func floatPoints(n, from int) []IngestPoint {
	pts := make([]IngestPoint, n)
	for i := range pts {
		pts[i] = IngestPoint{Values: []float64{float64(from + i)}}
	}
	return pts
}

func TestDurableCleanRestartRecovers(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, _ := newDurableServer(t, fs)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	ingest(t, ts.URL, "s", floatPoints(20, 0))
	ts.Close()
	srv.Close() // graceful shutdown: final checkpoint + journal close

	ts2, _, _ := newDurableServer(t, fs)
	if got := streamProcessed(t, ts2.URL, "s"); got != 20 {
		t.Fatalf("recovered processed = %v, want 20", got)
	}
	// The recovered stream serves queries and keeps ingesting.
	resp, body := do(t, http.MethodGet, ts2.URL+"/streams/s/query?type=count&h=10", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after recovery: status %d body %v", resp.StatusCode, body)
	}
	ingest(t, ts2.URL, "s", floatPoints(5, 20))
	if got := streamProcessed(t, ts2.URL, "s"); got != 25 {
		t.Fatalf("processed after post-recovery ingest = %v, want 25", got)
	}
	samples := scrape(t, ts2.URL)
	if samples["biasedres_durable_recoveries_total"] != 1 {
		t.Fatalf("recoveries metric = %v, want 1", samples["biasedres_durable_recoveries_total"])
	}
	if samples["biasedres_durable_quarantined_total"] != 0 {
		t.Fatalf("quarantined metric = %v, want 0", samples["biasedres_durable_quarantined_total"])
	}
}

func TestDurableHardKillBoundedLoss(t *testing.T) {
	fs := durable.NewMemFS()
	ts, _, store := newDurableServer(t, fs)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	// 10 points journaled and fsynced, 5 more journaled but still in the
	// coalescing window when the process dies.
	ingest(t, ts.URL, "s", floatPoints(10, 0))
	if err := store.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	ingest(t, ts.URL, "s", floatPoints(5, 10))
	fs.Crash() // SIGKILL: no drain, no final checkpoint
	ts.Close()
	fs.Reboot()

	ts2, _, _ := newDurableServer(t, fs)
	got := streamProcessed(t, ts2.URL, "s")
	if got != 10 {
		t.Fatalf("recovered processed = %v, want exactly the 10 fsynced points", got)
	}
	samples := scrape(t, ts2.URL)
	if samples["biasedres_durable_recoveries_total"] != 1 {
		t.Fatalf("recoveries metric = %v, want 1", samples["biasedres_durable_recoveries_total"])
	}
	if samples["biasedres_durable_quarantined_total"] != 0 {
		t.Fatalf("hard kill must not quarantine anything, metric = %v",
			samples["biasedres_durable_quarantined_total"])
	}
}

func TestDurableQuarantineNeverFatal(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, _ := newDurableServer(t, fs)
	createStream(t, ts.URL, "good", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	createStream(t, ts.URL, "bad", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	ingest(t, ts.URL, "good", floatPoints(7, 0))
	ingest(t, ts.URL, "bad", floatPoints(7, 0))
	ts.Close()
	srv.Close()

	// Corrupt every checkpoint generation of "bad".
	corrupted := 0
	for path := range fs.Files() {
		if strings.Contains(path, "st-bad.") && strings.HasSuffix(path, ".ckpt") {
			fs.WriteFile(path, []byte("scribbled over by a dying disk"))
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no checkpoint files found to corrupt")
	}

	ts2, _, _ := newDurableServer(t, fs)
	// Startup survived; the healthy stream is intact.
	resp, body := do(t, http.MethodGet, ts2.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after corrupt recovery: %d %v", resp.StatusCode, body)
	}
	if got := streamProcessed(t, ts2.URL, "good"); got != 7 {
		t.Fatalf("good stream processed = %v, want 7", got)
	}
	// The corrupt stream is gone, not half-recovered.
	resp, _ = do(t, http.MethodGet, ts2.URL+"/streams/bad", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad stream: status %d, want 404", resp.StatusCode)
	}
	samples := scrape(t, ts2.URL)
	if samples["biasedres_durable_quarantined_total"] == 0 {
		t.Fatal("quarantined metric is 0 after recovering past corrupt files")
	}
	// The corrupt files were moved aside, not deleted.
	inQuarantine := 0
	for path := range fs.Files() {
		if strings.Contains(path, "/quarantine/") {
			inQuarantine++
		}
	}
	if inQuarantine == 0 {
		t.Fatal("no files in quarantine directory")
	}
}

func TestDurableShardedIngestRecovers(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, _ := newDurableServer(t, fs, WithIngestShards(2, 64))
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 16})
	const batches, per = 8, 25
	for i := 0; i < batches; i++ {
		resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points",
			IngestRequest{Points: floatPoints(per, i*per)})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async ingest: status %d body %v", resp.StatusCode, body)
		}
	}
	ts.Close()
	// Graceful shutdown drains the queues and checkpoints, so every 202
	// acknowledged point must survive the restart.
	srv.Close()

	ts2, _, _ := newDurableServer(t, fs, WithIngestShards(2, 64))
	if got := streamProcessed(t, ts2.URL, "s"); got != batches*per {
		t.Fatalf("recovered processed = %v, want %d", got, batches*per)
	}
}

func TestDurableTimeDecayRecovers(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, _ := newDurableServer(t, fs)
	createStream(t, ts.URL, "td", CreateRequest{Policy: "timedecay", Lambda: 0.1, Capacity: 8})
	pts := make([]IngestPoint, 10)
	for i := range pts {
		tsv := float64(i + 1)
		pts[i] = IngestPoint{Values: []float64{float64(i)}, TS: &tsv}
	}
	ingest(t, ts.URL, "td", pts)
	ts.Close()
	srv.Close()

	ts2, _, _ := newDurableServer(t, fs)
	if got := streamProcessed(t, ts2.URL, "td"); got != 10 {
		t.Fatalf("recovered processed = %v, want 10", got)
	}
	// The recovered clock must still enforce non-decreasing timestamps:
	// a timestamp before the replayed ones is rejected.
	early := 0.5
	resp, _ := do(t, http.MethodPost, ts2.URL+"/streams/td/points",
		IngestRequest{Points: []IngestPoint{{Values: []float64{1}, TS: &early}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stale timestamp after recovery: status %d, want 400 (clock lost?)", resp.StatusCode)
	}
	late := 11.0
	resp, body := do(t, http.MethodPost, ts2.URL+"/streams/td/points",
		IngestRequest{Points: []IngestPoint{{Values: []float64{1}, TS: &late}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh timestamp after recovery: status %d body %v", resp.StatusCode, body)
	}
}

func TestDurableDeleteDropsFiles(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, _ := newDurableServer(t, fs)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	ingest(t, ts.URL, "s", floatPoints(5, 0))
	resp, _ := do(t, http.MethodDelete, ts.URL+"/streams/s", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	for path := range fs.Files() {
		if strings.Contains(path, "st-") {
			t.Fatalf("file %s survived stream deletion", path)
		}
	}
	ts.Close()
	srv.Close()
	ts2, _, _ := newDurableServer(t, fs)
	resp, _ = do(t, http.MethodGet, ts2.URL+"/streams/s", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted stream resurrected: status %d", resp.StatusCode)
	}
}

func TestDurableRestoreRewritesChain(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, _ := newDurableServer(t, fs)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	ingest(t, ts.URL, "s", floatPoints(5, 0))
	blob := fetchTransfer(t, ts.URL, "s")
	ingest(t, ts.URL, "s", floatPoints(5, 5))

	resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/restore", blob)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d body %v", resp.StatusCode, body)
	}
	ts.Close()
	srv.Close()

	// The restored state — not the pre-restore one — is what survives.
	ts2, _, _ := newDurableServer(t, fs)
	if got := streamProcessed(t, ts2.URL, "s"); got != 5 {
		t.Fatalf("recovered processed = %v, want the restored 5", got)
	}
}

func TestDurableMetricsExposed(t *testing.T) {
	fs := durable.NewMemFS()
	ts, _, _ := newDurableServer(t, fs)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	ingest(t, ts.URL, "s", floatPoints(3, 0))
	samples := scrape(t, ts.URL)
	for _, name := range []string{
		"biasedres_durable_checkpoints_total",
		"biasedres_durable_journal_appends_total",
		"biasedres_durable_recoveries_total",
		"biasedres_durable_quarantined_total",
		"biasedres_durable_write_errors_total",
	} {
		if _, ok := samples[name]; !ok {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
	if samples["biasedres_durable_checkpoints_total"] < 1 {
		t.Fatalf("checkpoints metric = %v, want >= 1 (creation checkpoint)",
			samples["biasedres_durable_checkpoints_total"])
	}
	if samples["biasedres_durable_journal_appends_total"] < 1 {
		t.Fatalf("journal appends metric = %v, want >= 1",
			samples["biasedres_durable_journal_appends_total"])
	}
	if _, ok := samples[`biasedres_durable_last_checkpoint_age_seconds{stream="s"}`]; !ok {
		t.Error("per-stream last checkpoint age gauge missing")
	}
}

func TestDurableCheckpointSkipsQuiescentStreams(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, store := newDurableServer(t, fs)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	base := store.StatsNow().Checkpoints // creation checkpoint

	// No mutations since creation: a non-forced sweep must write nothing.
	srv.checkpointAll(false)
	if got := store.StatsNow().Checkpoints; got != base {
		t.Fatalf("quiescent sweep wrote %d checkpoints", got-base)
	}
	ingest(t, ts.URL, "s", floatPoints(1, 0))
	srv.checkpointAll(false)
	if got := store.StatsNow().Checkpoints; got != base+1 {
		t.Fatalf("post-ingest sweep wrote %d checkpoints, want 1", got-base)
	}
	// And the stream is quiescent again.
	srv.checkpointAll(false)
	if got := store.StatsNow().Checkpoints; got != base+1 {
		t.Fatalf("second quiescent sweep wrote %d extra checkpoints", got-base-1)
	}
}

// checkpointBlockingFS is a MemFS that counts completed journal fsyncs
// and, once armed, holds every checkpoint write until release closes.
type checkpointBlockingFS struct {
	*durable.MemFS
	armed   atomic.Bool
	blocked chan struct{} // closed when a checkpoint write first waits
	release chan struct{}
	once    sync.Once
	syncs   atomic.Int64
}

func (b *checkpointBlockingFS) Create(p string) (durable.File, error) {
	if b.armed.Load() && strings.HasSuffix(p, ".ckpt.tmp") {
		b.once.Do(func() { close(b.blocked) })
		<-b.release
	}
	f, err := b.MemFS.Create(p)
	if err == nil && strings.HasSuffix(p, ".journal") {
		f = countingFile{f, &b.syncs}
	}
	return f, err
}

// countingFile counts the fsyncs that complete on its file.
type countingFile struct {
	durable.File
	syncs *atomic.Int64
}

func (f countingFile) Sync() error {
	err := f.File.Sync()
	f.syncs.Add(1)
	return err
}

// TestDurableSyncDuringCheckpoint: journal fsyncs keep their interval
// while a checkpoint pass is stuck writing a file, so the loss bound of
// JournalSyncInterval holds however long checkpoints take.
func TestDurableSyncDuringCheckpoint(t *testing.T) {
	fs := &checkpointBlockingFS{MemFS: durable.NewMemFS(), blocked: make(chan struct{}), release: make(chan struct{})}
	store, err := durable.Open(fs, "data")
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	srv := New(1, WithDurability(store, DurabilityConfig{
		CheckpointInterval:  10 * time.Millisecond,
		JournalSyncInterval: 5 * time.Millisecond,
	}))
	ts := httptest.NewServer(srv)
	var release sync.Once
	t.Cleanup(func() {
		release.Do(func() { close(fs.release) })
		ts.Close()
		srv.Close()
	})
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	fs.armed.Store(true)
	ingest(t, ts.URL, "s", floatPoints(10, 0))
	select {
	case <-fs.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("no checkpoint pass started")
	}

	// The pass rotated the journal and now waits on its checkpoint file;
	// points acknowledged meanwhile must still reach disk.
	before := fs.syncs.Load()
	ingest(t, ts.URL, "s", floatPoints(10, 10))
	for deadline := time.Now().Add(2 * time.Second); fs.syncs.Load() == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no journal fsync in 2s while a checkpoint pass was blocked")
		}
	}
	release.Do(func() { close(fs.release) })
}

func TestMaxBodyBytesReturns413(t *testing.T) {
	srv := New(1, WithMaxBodyBytes(512))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})

	big := floatPoints(1000, 0) // ~15 KiB of JSON, far over the 512 B cap
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: big})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d, want 413", resp.StatusCode)
	}
	if msg, _ := body["error"].(string); msg == "" {
		t.Fatalf("413 body carries no JSON error: %v", body)
	}
	// Oversized restore blobs are bounded too.
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/restore", make([]byte, 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized restore: status %d, want 413", resp.StatusCode)
	}
	// Small requests still pass.
	ingest(t, ts.URL, "s", floatPoints(2, 0))
	if got := streamProcessed(t, ts.URL, "s"); got != 2 {
		t.Fatalf("processed = %v after small ingest, want 2", got)
	}
}

func TestDurableRepeatedKillRestartCycles(t *testing.T) {
	// Several kill/recover cycles in a row: sequence numbers keep climbing,
	// state is never lost, and nothing is ever quarantined.
	fs := durable.NewMemFS()
	total := 0
	for cycle := 0; cycle < 4; cycle++ {
		ts, srv, store := newDurableServer(t, fs)
		if cycle == 0 {
			createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
		}
		if got := streamProcessed(t, ts.URL, "s"); got != float64(total) {
			t.Fatalf("cycle %d: recovered processed = %v, want %d", cycle, got, total)
		}
		ingest(t, ts.URL, "s", floatPoints(5, total))
		total += 5
		if err := store.Sync(); err != nil {
			t.Fatalf("cycle %d: Sync: %v", cycle, err)
		}
		fs.Crash()
		ts.Close()
		srv.Close()
		fs.Reboot()
	}
	ts, _, store := newDurableServer(t, fs)
	if got := streamProcessed(t, ts.URL, "s"); got != float64(total) {
		t.Fatalf("final recovery: processed = %v, want %d", got, total)
	}
	if q := store.StatsNow().Quarantined; q != 0 {
		t.Fatalf("kill/restart cycles quarantined %d files", q)
	}
}

// TestDurableConcurrentIngestReplays has several clients ingest into one
// stream at once. apply reuses one journal op buffer per stream under the
// sampler lock, so the journal must still hold every batch exactly once,
// in apply order: after a crash, replay rebuilds the very reservoir the
// live stream held.
func TestDurableConcurrentIngestReplays(t *testing.T) {
	fs := durable.NewMemFS()
	ts, _, store := newDurableServer(t, fs)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 10})
	const clients, batches, n = 4, 20, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < batches; k++ {
				blob, err := json.Marshal(IngestRequest{Points: floatPoints(n, (c*batches+k)*n)})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/streams/s/points", "application/json", bytes.NewReader(blob))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest: status %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	live := goldenRead(t, ts.URL, "s")
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	ts.Close()
	fs.Reboot()

	ts2, _, _ := newDurableServer(t, fs)
	if got := streamProcessed(t, ts2.URL, "s"); got != clients*batches*n {
		t.Fatalf("recovered processed = %v, want %d", got, clients*batches*n)
	}
	got := goldenRead(t, ts2.URL, "s")
	if got.Next != live.Next || string(got.Snapshot) != string(live.Snapshot) {
		t.Fatalf("recovered stream differs from the live one: next %s vs %s, snapshot %d vs %d bytes",
			got.Next, live.Next, len(got.Snapshot), len(live.Snapshot))
	}
	for q, body := range live.Responses {
		if got.Responses[q] != body {
			t.Errorf("%s: got %s want %s", q, got.Responses[q], body)
		}
	}
}

// TestJournalSameOverBothTransports: a batch journals the same record
// over HTTP and over the wire, in the one batch layout: for 10 values and
// a label, 88 bytes a point, the consecutive indices stored as the first.
func TestJournalSameOverBothTransports(t *testing.T) {
	const n, dim = 256, 10
	journal := func(ingest func(base string, srv *Server)) []byte {
		fs := durable.NewMemFS()
		ts, srv, _ := newDurableServer(t, fs)
		createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 100})
		ingest(ts.URL, srv)
		for name := range fs.Files() {
			if strings.HasSuffix(name, ".journal") {
				data, _ := fs.ReadFile(name)
				return data
			}
		}
		t.Fatal("the stream has no journal")
		return nil
	}
	viaHTTP := journal(func(base string, _ *Server) { ingest(t, base, "s", wireHTTPPoints(n, dim)) })
	viaWire := journal(func(_ string, srv *Server) {
		f := wireTestFrame(n, dim)
		f.Name = []byte("s")
		if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
			t.Fatalf("IngestFrame: %+v", r)
		}
	})
	if !bytes.Equal(viaHTTP, viaWire) {
		t.Fatalf("journals differ: HTTP %d bytes, wire %d bytes", len(viaHTTP), len(viaWire))
	}
	// File header, record length and CRC, batch header, first index.
	if want := 16 + 8 + 13 + 8 + n*(8+8*dim); len(viaWire) != want {
		t.Fatalf("journal is %d bytes, want %d", len(viaWire), want)
	}
}
