package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"biasedres/internal/durable"
	"biasedres/internal/wire"
)

// fetchTransfer GETs a stream's transfer blob.
func fetchTransfer(t *testing.T, base, name string) []byte {
	t.Helper()
	resp, body := do(t, http.MethodGet, base+"/streams/"+name+"/transfer", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET transfer: status %d body %v", resp.StatusCode, body)
	}
	return body["raw"].([]byte)
}

// exportState GETs a stream's /transfer body and decodes it: how the tests
// read a stream's sampler snapshot and (next, dim) bookkeeping.
func exportState(t *testing.T, base, name string) durable.Checkpoint {
	t.Helper()
	ck, err := durable.DecodeCheckpoint(fetchTransfer(t, base, name))
	if err != nil {
		t.Fatalf("decoding %s's transfer: %v", name, err)
	}
	return ck
}

// installTransfer POSTs a transfer blob under name.
func installTransfer(t *testing.T, base, name string, blob []byte) map[string]any {
	t.Helper()
	resp, body := do(t, http.MethodPost, base+"/streams/"+name+"/transfer", blob)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST transfer: status %d body %v", resp.StatusCode, body)
	}
	return body
}

// TestTransferByteIdentical is the migration invariant: export a stream,
// install it on a second node, and the destination's snapshot — and its
// own re-exported transfer — are byte-identical to the source's. Every
// policy the federation replicates must hold this, including RNG state,
// or a migrated stream would diverge from its replicas on the next point.
func TestTransferByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		req  CreateRequest
	}{
		{"variable", CreateRequest{Policy: "variable", Lambda: 0.01, Capacity: 64}},
		{"biased", CreateRequest{Policy: "biased", Lambda: 0.02}},
		{"unbiased", CreateRequest{Policy: "unbiased", Capacity: 32}},
		{"window", CreateRequest{Policy: "window", Window: 50, Capacity: 50}},
		{"tiered", CreateRequest{Policy: "variable", Lambda: 0.01, Capacity: 64, Tiers: 3, TierRatio: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := newTestServer(t)
			dst := newTestServer(t)
			createStream(t, src.URL, "s", tc.req)
			pts := make([]IngestPoint, 200)
			for i := range pts {
				label := i % 3
				pts[i] = IngestPoint{Values: []float64{float64(i), float64(i % 7)}, Label: &label}
			}
			ingest(t, src.URL, "s", pts)

			blob := fetchTransfer(t, src.URL, "s")
			body := installTransfer(t, dst.URL, "s", blob)
			if body["installed"] != "s" {
				t.Fatalf("install response %v", body)
			}

			// The source's raw snapshot and the destination's must match
			// byte for byte: same residents, same probabilities, same RNG.
			srcCk, dstCk := exportState(t, src.URL, "s"), exportState(t, dst.URL, "s")
			if !bytes.Equal(srcCk.Snapshot, dstCk.Snapshot) {
				t.Fatal("destination snapshot differs from source after transfer install")
			}
			if srcCk.Next != dstCk.Next {
				t.Fatalf("next-index diverged: src %d dst %d", srcCk.Next, dstCk.Next)
			}

			// Re-exporting from the destination reproduces the blob too.
			if !bytes.Equal(fetchTransfer(t, dst.URL, "s"), blob) {
				t.Fatal("re-exported transfer differs from the shipped blob")
			}

			// Both nodes answer the same count estimate after the move.
			_, sq := do(t, http.MethodGet, src.URL+"/streams/s/query?type=count&h=100", nil)
			_, dq := do(t, http.MethodGet, dst.URL+"/streams/s/query?type=count&h=100", nil)
			if sq["estimate"] != dq["estimate"] {
				t.Fatalf("estimates diverged: src %v dst %v", sq["estimate"], dq["estimate"])
			}
		})
	}
}

// TestTransferInstallErrors covers the install guardrails: corrupt blobs
// are rejected before any state is touched, and installing over a live
// stream conflicts.
func TestTransferInstallErrors(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 0.01, Capacity: 16})
	ingest(t, ts.URL, "s", []IngestPoint{{Values: []float64{1}}, {Values: []float64{2}}})
	blob := fetchTransfer(t, ts.URL, "s")

	resp, _ := do(t, http.MethodPost, ts.URL+"/streams/other/transfer", []byte("not a transfer"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage blob: status %d, want 400", resp.StatusCode)
	}
	mut := append([]byte(nil), blob...)
	mut[len(mut)/2] ^= 0xff
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/other/transfer", mut)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt blob: status %d, want 400", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/streams/s/transfer", blob)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("install over live stream: status %d, want 409", resp.StatusCode)
	}
	// The guardrails changed nothing: the source still exports the same bytes.
	if !bytes.Equal(fetchTransfer(t, ts.URL, "s"), blob) {
		t.Fatal("failed installs mutated the source stream")
	}
	// Installing under a fresh name still works, ignoring the embedded name.
	installTransfer(t, ts.URL, "renamed", blob)
	resp, _ = do(t, http.MethodGet, ts.URL+"/streams/renamed", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renamed install not queryable: status %d", resp.StatusCode)
	}
}

// TestTransferInstallDurable checks an installed stream is immediately
// durable: kill the destination server right after install and a restart
// recovers the stream with the shipped state.
func TestTransferInstallDurable(t *testing.T) {
	src := newTestServer(t)
	createStream(t, src.URL, "s", CreateRequest{Policy: "variable", Lambda: 0.01, Capacity: 32})
	pts := make([]IngestPoint, 100)
	for i := range pts {
		pts[i] = IngestPoint{Values: []float64{float64(i)}}
	}
	ingest(t, src.URL, "s", pts)
	blob := fetchTransfer(t, src.URL, "s")

	fs := durable.NewMemFS()
	store, err := durable.Open(fs, "data")
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	dstSrv := New(1, WithDurability(store, DurabilityConfig{}))
	dst := httptest.NewServer(dstSrv)
	installTransfer(t, dst.URL, "s", blob)
	before := exportState(t, dst.URL, "s")
	dst.Close()
	dstSrv.Close()

	store2, err := durable.Open(fs, "data")
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	reSrv := New(1, WithDurability(store2, DurabilityConfig{}))
	re := httptest.NewServer(reSrv)
	t.Cleanup(func() { re.Close(); reSrv.Close() })
	if after := exportState(t, re.URL, "s"); !bytes.Equal(before.Snapshot, after.Snapshot) {
		t.Fatal("recovered snapshot differs from the installed state")
	}
}

// TestTransferInstallsCheckpointFile checks that a checkpoint is a
// transfer: the newest .ckpt file a durable node wrote, POSTed as is to
// a second node, installs a stream whose snapshot is byte-identical to
// the source's.
func TestTransferInstallsCheckpointFile(t *testing.T) {
	fs := durable.NewMemFS()
	src, srcSrv, _ := newDurableServer(t, fs)
	createStream(t, src.URL, "s", CreateRequest{Policy: "variable", Lambda: 0.01, Capacity: 64})
	ingest(t, src.URL, "s", floatPoints(200, 0))
	want := exportState(t, src.URL, "s")
	src.Close()
	srcSrv.Close() // the final checkpoint holds all 200 points

	dst := newTestServer(t)
	installTransfer(t, dst.URL, "s", newestCheckpointFile(t, fs, "s"))
	if got := exportState(t, dst.URL, "s"); !bytes.Equal(got.Snapshot, want.Snapshot) {
		t.Fatal("stream installed from the newest checkpoint file differs from the source's snapshot")
	}
	if n := streamProcessed(t, dst.URL, "s"); n != 200 {
		t.Fatalf("installed stream processed %v points, want 200", n)
	}
}

// newestCheckpointFile reads the newest .ckpt file of stream name off a
// data directory at "data".
func newestCheckpointFile(t *testing.T, fs *durable.MemFS, name string) []byte {
	t.Helper()
	var file string
	var seq uint64
	for p := range fs.Files() {
		var n uint64
		if _, err := fmt.Sscanf(p, "data/st-"+name+".%d.ckpt", &n); err == nil && n > seq {
			file, seq = p, n
		}
	}
	data, ok := fs.ReadFile(file)
	if !ok {
		t.Fatalf("no checkpoint file of stream %s on disk: %v", name, fs.Files())
	}
	return data
}

// TestRestoreTakesCheckpointFile checks that POST /restore takes the same
// body as POST /transfer: the newest .ckpt file of a durable node restores
// over a live stream of the same configuration, which then exports the
// file's state — its snapshot, next index and dim.
func TestRestoreTakesCheckpointFile(t *testing.T) {
	fs := durable.NewMemFS()
	src, srcSrv, _ := newDurableServer(t, fs)
	req := CreateRequest{Policy: "variable", Lambda: 0.01, Capacity: 64}
	createStream(t, src.URL, "s", req)
	ingest(t, src.URL, "s", wireHTTPPoints(200, 2))
	src.Close()
	srcSrv.Close()
	data := newestCheckpointFile(t, fs, "s")
	want, err := durable.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}

	dst := newTestServer(t)
	createStream(t, dst.URL, "live", req)
	ingest(t, dst.URL, "live", wireHTTPPoints(50, 2))
	if resp, body := do(t, http.MethodPost, dst.URL+"/streams/live/restore", data); resp.StatusCode != http.StatusOK {
		t.Fatalf("restoring a .ckpt file: status %d body %v", resp.StatusCode, body)
	}
	got := exportState(t, dst.URL, "live")
	if !bytes.Equal(got.Snapshot, want.Snapshot) || got.Next != want.Next || got.Dim != want.Dim {
		t.Fatalf("restored stream exports next %d dim %d and a %d-byte snapshot; the file holds next %d dim %d and %d bytes",
			got.Next, got.Dim, len(got.Snapshot), want.Next, want.Dim, len(want.Snapshot))
	}
}

// TestRestoreKeepsArrivalOrder checks that a restore takes the stream's
// position from the checkpoint, not from its sampler's processed count:
// after points at indices 10 and 20, an export and a restore, a point at
// index 15 is refused — live, and again after a crash and restart.
func TestRestoreKeepsArrivalOrder(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, _ := newDurableServer(t, fs)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "unbiased", Capacity: 16})
	frame := func(idx ...uint64) *wire.Frame {
		f := wireTestFrame(len(idx), 1)
		f.Name, f.Indices = []byte("s"), idx
		return f
	}
	if r := srv.IngestFrame(frame(10, 20)); r.Status != wire.StatusOK {
		t.Fatalf("indexed frame: reply %+v", r)
	}
	if resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/restore", fetchTransfer(t, ts.URL, "s")); resp.StatusCode != http.StatusOK {
		t.Fatalf("restore: status %d body %v", resp.StatusCode, body)
	}
	refused := func(srv *Server, when string) {
		t.Helper()
		const want = "does not advance the stream (at 20)"
		if r := srv.IngestFrame(frame(15)); r.Status != wire.StatusError || !strings.Contains(r.Msg, want) {
			t.Fatalf("%s: index 15 got reply %+v, want an error saying %q", when, r, want)
		}
	}
	refused(srv, "after the restore")
	// A crash, not a clean shutdown: no final checkpoint is cut, so the
	// restart reads the one the restore wrote.
	fs.Crash()
	ts.Close()
	fs.Reboot()

	_, srv2, _ := newDurableServer(t, fs)
	refused(srv2, "after a crash and restart")
}

// TestRestoreRefusesBareSnapshot checks that the checkpoint is the only
// body a stream's state enters by: a bare sampler snapshot, the body the
// retired GET /snapshot served, is refused by /restore and /transfer with
// a 400 that names it and the route to export with, and the stream keeps
// its state.
func TestRestoreRefusesBareSnapshot(t *testing.T) {
	ts := newTestServer(t)
	createStream(t, ts.URL, "s", CreateRequest{Policy: "variable", Lambda: 0.01, Capacity: 16})
	ingest(t, ts.URL, "s", floatPoints(40, 0))
	before := fetchTransfer(t, ts.URL, "s")
	ck, err := durable.DecodeCheckpoint(before)
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"s/restore", "other/transfer"} {
		resp, body := do(t, http.MethodPost, ts.URL+"/streams/"+route, ck.Snapshot)
		msg, _ := body["error"].(string)
		if resp.StatusCode != http.StatusBadRequest ||
			!strings.Contains(msg, "bare sampler snapshot") || !strings.Contains(msg, "GET /streams/{name}/transfer") {
			t.Fatalf("%s with a bare snapshot: status %d body %v, want 400 naming the form and GET /transfer",
				route, resp.StatusCode, body)
		}
	}
	if !bytes.Equal(fetchTransfer(t, ts.URL, "s"), before) {
		t.Fatal("a refused restore changed the stream")
	}
}

// TestTransferRefusesContradictoryBookkeeping checks that install does
// not trust a checkpoint's (next, dim) over its own sampler. A next
// behind the processed count would hand out arrival indices twice; a dim
// other than the points' would refuse every later ingest. Both answer
// 400 on /transfer, and recovery quarantines such a stream. A dim of 0
// adopts the points' dimension.
func TestTransferRefusesContradictoryBookkeeping(t *testing.T) {
	src := newTestServer(t)
	createStream(t, src.URL, "s", CreateRequest{Policy: "timedecay", Lambda: 0.05, Capacity: 30})
	ingest(t, src.URL, "s", floatPoints(100, 0))
	ck := exportState(t, src.URL, "s")
	edited := func(edit func(*durable.Checkpoint)) []byte {
		c := ck
		edit(&c)
		data, err := durable.EncodeCheckpoint(c)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	behind := edited(func(c *durable.Checkpoint) { c.Next = 0 })
	wrongDim := edited(func(c *durable.Checkpoint) { c.Dim = 7 })

	dst := newTestServer(t)
	for name, data := range map[string][]byte{"behind": behind, "dim": wrongDim} {
		resp, body := do(t, http.MethodPost, dst.URL+"/streams/"+name+"/transfer", data)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d body %v, want 400", name, resp.StatusCode, body)
		}
		if resp, _ := do(t, http.MethodGet, dst.URL+"/streams/"+name, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: refused install left a stream behind (status %d)", name, resp.StatusCode)
		}
	}

	installTransfer(t, dst.URL, "nodim", edited(func(c *durable.Checkpoint) { c.Dim = 0 }))
	stats := mustStats(t, dst.URL, "nodim")
	if stats["dim"] != 1.0 {
		t.Fatalf("dim-0 checkpoint installed with dim %v, want the points' 1", stats["dim"])
	}
	ingest(t, dst.URL, "nodim", floatPoints(10, 100))

	fs := durable.NewMemFS()
	fs.WriteFile("data/st-behind.1.ckpt", behind)
	fs.WriteFile("data/st-dim.1.ckpt", wrongDim)
	rec, _, _ := newDurableServer(t, fs)
	for _, name := range []string{"behind", "dim"} {
		if resp, _ := do(t, http.MethodGet, rec.URL+"/streams/"+name, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: recovery installed a contradictory checkpoint (status %d)", name, resp.StatusCode)
		}
	}
	if q := scrape(t, rec.URL)["biasedres_durable_quarantined_total"]; q < 2 {
		t.Fatalf("quarantined %v files, want both checkpoints", q)
	}
}

// A multi.Manager fleet file is a header and then one checkpoint record
// per stream, the record a .ckpt file holds and a transfer ships. So each
// record of internal/multi's golden fleet installs on a node as is and
// answers the counts internal/multi/testdata/fleet.json recorded for it:
// the library and the daemon persist the same unit.
func TestFleetRecordInstallsThroughTransfer(t *testing.T) {
	raw, err := os.ReadFile("../multi/testdata/fleet.golden")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile("../multi/testdata/fleet.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		Name   string  `json:"name"`
		Count  float64 `json:"count"`
		Routed float64 `json:"routed_count"`
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t)
	r := bytes.NewReader(raw[32:]) // past the fleet header: magic, budget, λ, count
	for _, w := range want {
		ck, err := durable.ReadCheckpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Name != w.Name {
			t.Fatalf("fleet record %q, fleet.json names %q", ck.Name, w.Name)
		}
		rec, err := durable.EncodeCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		installTransfer(t, ts.URL, "fleet-"+ck.Name, rec)
		queries := map[string]float64{"h=0": w.Routed}
		if ck.Config.Tiers <= 1 {
			// The manager answers Estimate from the whole stream's
			// snapshot; the node routes a horizon to a tier.
			queries["h=50"] = w.Count
		}
		for h, count := range queries {
			_, body := do(t, http.MethodGet, ts.URL+"/streams/fleet-"+ck.Name+"/query?type=count&"+h, nil)
			if body["estimate"] != count {
				t.Errorf("%s: count over %s is %v on the node, %v in fleet.json", ck.Name, h, body["estimate"], count)
			}
		}
	}
}
