package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"biasedres/internal/durable"
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
			srcResp, srcBody := do(t, http.MethodGet, src.URL+"/streams/s/snapshot", nil)
			dstResp, dstBody := do(t, http.MethodGet, dst.URL+"/streams/s/snapshot", nil)
			if srcResp.StatusCode != http.StatusOK || dstResp.StatusCode != http.StatusOK {
				t.Fatalf("snapshot statuses %d / %d", srcResp.StatusCode, dstResp.StatusCode)
			}
			if !bytes.Equal(srcBody["raw"].([]byte), dstBody["raw"].([]byte)) {
				t.Fatal("destination snapshot differs from source after transfer install")
			}
			if srcResp.Header.Get("X-Biasedres-Next-Index") != dstResp.Header.Get("X-Biasedres-Next-Index") {
				t.Fatalf("next-index diverged: src %s dst %s",
					srcResp.Header.Get("X-Biasedres-Next-Index"), dstResp.Header.Get("X-Biasedres-Next-Index"))
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
	_, before := do(t, http.MethodGet, dst.URL+"/streams/s/snapshot", nil)
	dst.Close()
	dstSrv.Close()

	store2, err := durable.Open(fs, "data")
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	reSrv := New(1, WithDurability(store2, DurabilityConfig{}))
	re := httptest.NewServer(reSrv)
	t.Cleanup(func() { re.Close(); reSrv.Close() })
	resp, after := do(t, http.MethodGet, re.URL+"/streams/s/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered stream snapshot: status %d", resp.StatusCode)
	}
	if !bytes.Equal(before["raw"].([]byte), after["raw"].([]byte)) {
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
	resp, want := do(t, http.MethodGet, src.URL+"/streams/s/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("source snapshot: status %d", resp.StatusCode)
	}
	src.Close()
	srcSrv.Close() // the final checkpoint holds all 200 points

	var file string
	var seq uint64
	for p := range fs.Files() {
		var n uint64
		if _, err := fmt.Sscanf(p, "data/st-s.%d.ckpt", &n); err == nil && n > seq {
			file, seq = p, n
		}
	}
	data, ok := fs.ReadFile(file)
	if !ok {
		t.Fatalf("no checkpoint file of stream s on disk: %v", fs.Files())
	}

	dst := newTestServer(t)
	installTransfer(t, dst.URL, "s", data)
	resp, got := do(t, http.MethodGet, dst.URL+"/streams/s/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("installed snapshot: status %d", resp.StatusCode)
	}
	if !bytes.Equal(got["raw"].([]byte), want["raw"].([]byte)) {
		t.Fatalf("stream installed from %s differs from the source's snapshot", file)
	}
	if n := streamProcessed(t, dst.URL, "s"); n != 200 {
		t.Fatalf("installed stream processed %v points, want 200", n)
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
	ck, err := durable.DecodeCheckpoint(fetchTransfer(t, src.URL, "s"))
	if err != nil {
		t.Fatal(err)
	}
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
