package server

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"biasedres/internal/durable"
)

// Golden durable fixtures: testdata/golden holds a durability data
// directory (checkpoint files plus journal tails) for one stream of every
// policy and two tier ladders, and manifest.json holds what each stream
// answered before the process stopped. TestGoldenCheckpointsRestore
// recovers the directory and checks that every stream re-marshals to the
// same bytes and answers the same queries — the guard that the checkpoint
// format and the recovery path stay compatible with files already on disk.
//
// Gob numbers types in the order a process first encodes them, so snapshot
// bytes are only comparable within one process: the test restores the
// manifest's snapshot into a scratch stream of the same configuration and
// compares that stream's re-marshaled bytes with the recovered stream's.
//
// Regenerate with:
//
//	BIASEDRES_GEN_GOLDEN=1 go test -run TestGenerateGoldenCheckpoints ./internal/server

var goldenStreams = []struct {
	name string
	req  CreateRequest
}{
	{"variable", CreateRequest{Policy: "variable", Lambda: 0.02, Capacity: 40}},
	{"biased", CreateRequest{Policy: "biased", Lambda: 0.05}},
	{"constrained", CreateRequest{Policy: "constrained", Lambda: 0.02, Capacity: 30}},
	{"unbiased", CreateRequest{Policy: "unbiased", Capacity: 30}},
	{"window", CreateRequest{Policy: "window", Window: 50, Capacity: 10}},
	{"timedecay", CreateRequest{Policy: "timedecay", Lambda: 0.05, Capacity: 30}},
	{"ttbs", CreateRequest{Policy: "ttbs", Lambda: 0.02, Capacity: 30}},
	{"rtbs", CreateRequest{Policy: "rtbs", Lambda: 0.02, Capacity: 30}},
	{"tiered-variable", CreateRequest{Policy: "variable", Lambda: 0.05, Capacity: 20, Tiers: 3, TierRatio: 4}},
	{"tiered-timedecay", CreateRequest{Policy: "timedecay", Lambda: 0.05, Capacity: 20, Tiers: 2}},
}

// goldenQueries are the reads whose response bodies the manifest pins.
var goldenQueries = []string{
	"query?type=count&h=50",
	"query?type=count&h=0",
	"query?type=average&h=100",
	"query?type=average&h=0",
}

type goldenStream struct {
	Name      string            `json:"name"`
	Config    CreateRequest     `json:"config"`
	Next      string            `json:"next"`
	Snapshot  []byte            `json:"snapshot"`
	Responses map[string]string `json:"responses"`
}

const goldenDir = "testdata/golden"

// goldenPoints returns points [from, from+n) of the fixture stream: dim 2,
// three labels, and (for time-decay streams) a timestamp equal to the
// arrival number on all but every tenth point, which advances the clock
// by one unit instead.
func goldenPoints(from, n int, timed bool) []IngestPoint {
	pts := make([]IngestPoint, n)
	for k := range pts {
		i := from + k
		label := i % 3
		pts[k] = IngestPoint{Values: []float64{float64(i % 7), float64(i) / 3}, Label: &label}
		if timed && i%10 != 0 {
			ts := float64(i)
			pts[k].TS = &ts
		}
	}
	return pts
}

// goldenRead fetches one stream's snapshot and pinned query bodies.
func goldenRead(t *testing.T, base, name string) goldenStream {
	t.Helper()
	get := func(p string) (*http.Response, []byte) {
		resp, err := http.Get(base + "/streams/" + name + "/" + p)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d body %s", name, p, resp.StatusCode, body)
		}
		return resp, body
	}
	resp, snap := get("snapshot")
	out := goldenStream{
		Name:      name,
		Next:      resp.Header.Get("X-Biasedres-Next-Index"),
		Snapshot:  snap,
		Responses: make(map[string]string, len(goldenQueries)),
	}
	for _, q := range goldenQueries {
		_, body := get(q)
		out.Responses[q] = string(body)
	}
	return out
}

func TestGenerateGoldenCheckpoints(t *testing.T) {
	if os.Getenv("BIASEDRES_GEN_GOLDEN") != "1" {
		t.Skip("set BIASEDRES_GEN_GOLDEN=1 to regenerate the golden checkpoints")
	}
	fs := durable.NewMemFS()
	ts, srv, store := newDurableServer(t, fs)
	for _, gs := range goldenStreams {
		createStream(t, ts.URL, gs.name, gs.req)
	}
	// 150 points reach the checkpoint, 60 more stay in the journal tail.
	for _, gs := range goldenStreams {
		timed := gs.req.Policy == "timedecay"
		for from := 1; from <= 150; from += 50 {
			ingest(t, ts.URL, gs.name, goldenPoints(from, 50, timed))
		}
	}
	srv.CheckpointNow()
	for _, gs := range goldenStreams {
		timed := gs.req.Policy == "timedecay"
		ingest(t, ts.URL, gs.name, goldenPoints(151, 40, timed))
		ingest(t, ts.URL, gs.name, goldenPoints(191, 20, timed))
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	manifest := make([]goldenStream, 0, len(goldenStreams))
	for _, gs := range goldenStreams {
		entry := goldenRead(t, ts.URL, gs.name)
		entry.Config = gs.req
		manifest = append(manifest, entry)
	}

	if err := os.RemoveAll(goldenDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(goldenDir, "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	files := fs.Files()
	for p := range files {
		data, _ := fs.ReadFile(p)
		if err := os.WriteFile(filepath.Join(goldenDir, "data", path.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(goldenDir, "manifest.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d data files and %d manifest entries to %s", len(files), len(manifest), goldenDir)
}

func TestGoldenCheckpointsRestore(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(goldenDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest []goldenStream
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(goldenDir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	fs := durable.NewMemFS()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(goldenDir, "data", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fs.WriteFile(path.Join("data", e.Name()), data)
	}
	ts, _, _ := newDurableServer(t, fs)

	resp, body := do(t, http.MethodGet, ts.URL+"/streams", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var names []string
	for _, n := range body["streams"].([]any) {
		names = append(names, n.(string))
	}
	var want []string
	for _, gs := range manifest {
		want = append(want, gs.Name)
	}
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("recovered streams %v, want %v", names, want)
	}
	for _, gs := range manifest {
		got := goldenRead(t, ts.URL, gs.Name)
		if got.Next != gs.Next {
			t.Errorf("%s: next index %s, want %s", gs.Name, got.Next, gs.Next)
		}
		scratch := gs.Name + "-scratch"
		createStream(t, ts.URL, scratch, gs.Config)
		if resp, body := do(t, http.MethodPost, ts.URL+"/streams/"+scratch+"/restore", gs.Snapshot); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: restoring the golden snapshot: status %d body %v", gs.Name, resp.StatusCode, body)
		}
		if want := goldenRead(t, ts.URL, scratch); string(got.Snapshot) != string(want.Snapshot) {
			t.Errorf("%s: recovered snapshot differs from the golden one (%d vs %d bytes)",
				gs.Name, len(got.Snapshot), len(want.Snapshot))
		}
		for q, body := range gs.Responses {
			if got.Responses[q] != body {
				t.Errorf("%s %s: got %s want %s", gs.Name, q, got.Responses[q], body)
			}
		}
	}
}
