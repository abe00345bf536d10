package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
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
// The checkpoints and manifest were written by an older binary, whose
// journals were gob-encoded BRESJRN1 files. Those journals were converted
// once to BRESJRN2, record for record: the same base sequence and the same
// batches the BRESJRN1 decoder produced (explicit indices, labels, weights,
// timestamps and per-point value counts). testdata/legacy keeps one
// original BRESJRN1 journal for TestGoldenRefusesV1Journal.
//
// Gob numbers types in the order a process first encodes them, so snapshot
// bytes are only comparable within one process: the test restores the
// manifest's snapshot and next index, as a checkpoint, into a scratch
// stream of the same configuration and
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

// goldenRead fetches one stream's snapshot and next index, off its
// exported checkpoint, and its pinned query bodies.
func goldenRead(t *testing.T, base, name string) goldenStream {
	t.Helper()
	get := func(p string) []byte {
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
		return body
	}
	ck := exportState(t, base, name)
	out := goldenStream{
		Name:      name,
		Next:      strconv.FormatUint(ck.Next, 10),
		Snapshot:  ck.Snapshot,
		Responses: make(map[string]string, len(goldenQueries)),
	}
	for _, q := range goldenQueries {
		out.Responses[q] = string(get(q))
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
	ts, _, _ := newDurableServer(t, loadGoldenFS(t))

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
		next, err := strconv.ParseUint(gs.Next, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := durable.EncodeCheckpoint(durable.Checkpoint{
			Seq: 1, Name: gs.Name, Config: gs.Config, Next: next, Snapshot: gs.Snapshot})
		if err != nil {
			t.Fatal(err)
		}
		if resp, body := do(t, http.MethodPost, ts.URL+"/streams/"+scratch+"/restore", ckpt); resp.StatusCode != http.StatusOK {
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

// loadGoldenFS copies the golden data directory into a fresh MemFS.
func loadGoldenFS(t *testing.T) *durable.MemFS {
	t.Helper()
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
	return fs
}

// TestGoldenUpgradeThenCrash recovers the golden directory, whose
// checkpoints an older binary wrote, and keeps ingesting into a new
// journal. It then stops the process three ways: cleanly, by a crash that
// kills the final checkpoint, and by that crash plus a scribbled-over
// newest checkpoint, which forces recovery back onto the golden checkpoint
// and a chain of the golden journal and the new one. Each recovers to the
// same counts, snapshots and answers. Pure crashes quarantine nothing.
func TestGoldenUpgradeThenCrash(t *testing.T) {
	const extra = 30 // points past the golden 210
	run := func(t *testing.T, stop string) map[string]goldenStream {
		fs := loadGoldenFS(t)
		ts, srv, store := newDurableServer(t, fs)
		for _, gs := range goldenStreams {
			ingest(t, ts.URL, gs.name, goldenPoints(211, extra, gs.req.Policy == "timedecay"))
		}
		if err := store.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, gs := range goldenStreams {
			data, ok := fs.ReadFile("data/st-" + gs.name + ".3.journal")
			if !ok || !strings.HasPrefix(string(data), "BRESJRN2") || len(data) <= 16 {
				t.Fatalf("%s: the post-upgrade journal is not a non-empty BRESJRN2 file", gs.name)
			}
		}
		if stop != "clean" {
			fs.CrashAt(1) // the shutdown's final checkpoint dies on its first write
		}
		ts.Close()
		srv.Close()
		fs.Reboot()
		for _, gs := range goldenStreams {
			if _, ok := fs.ReadFile("data/st-" + gs.name + ".4.ckpt"); ok != (stop == "clean") {
				t.Fatalf("%s: final checkpoint on disk = %v after a %s stop", gs.name, ok, stop)
			}
			if stop == "fallback" {
				fs.WriteFile("data/st-"+gs.name+".3.ckpt", []byte("scribbled over by a dying disk"))
			}
		}

		ts2, _, _ := newDurableServer(t, fs)
		wantQuarantined := 0.0
		if stop == "fallback" {
			wantQuarantined = float64(len(goldenStreams))
		}
		if q := scrape(t, ts2.URL)["biasedres_durable_quarantined_total"]; q != wantQuarantined {
			t.Fatalf("quarantined %v files, want %v", q, wantQuarantined)
		}
		out := make(map[string]goldenStream, len(goldenStreams))
		for _, gs := range goldenStreams {
			if got := streamProcessed(t, ts2.URL, gs.name); got != 210+extra {
				t.Fatalf("%s: processed %v after recovery, want %d", gs.name, got, 210+extra)
			}
			out[gs.name] = goldenRead(t, ts2.URL, gs.name)
		}
		return out
	}
	clean := run(t, "clean")
	for _, stop := range []string{"crash", "fallback"} {
		t.Run(stop, func(t *testing.T) {
			got := run(t, stop)
			for _, gs := range goldenStreams {
				want, have := clean[gs.name], got[gs.name]
				if have.Next != want.Next {
					t.Errorf("%s: next index %s, want %s", gs.name, have.Next, want.Next)
				}
				if string(have.Snapshot) != string(want.Snapshot) {
					t.Errorf("%s: snapshot differs from the uncrashed twin's (%d vs %d bytes)",
						gs.name, len(have.Snapshot), len(want.Snapshot))
				}
				for q, body := range want.Responses {
					if have.Responses[q] != body {
						t.Errorf("%s %s: got %s want %s", gs.name, q, have.Responses[q], body)
					}
				}
			}
		})
	}
}

// lockedBuffer is a log sink safe for the server's concurrent writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGoldenRefusesV1Journal: the golden directory with the "variable"
// stream's tail journal swapped for the original BRESJRN1 one, which
// holds records. Recovery leaves that stream out and logs an Error naming
// the file and the remedy; a create or a transfer install of its name is
// refused, and every file of it is byte-identical afterwards. The
// "biased" stream's tail swapped for a header-only BRESJRN1 journal, all
// a clean shutdown leaves, recovers from its checkpoint.
func TestGoldenRefusesV1Journal(t *testing.T) {
	fs := loadGoldenFS(t)
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy", "st-variable.2.journal"))
	if err != nil {
		t.Fatal(err)
	}
	fs.WriteFile("data/st-variable.2.journal", legacy)
	fs.WriteFile("data/st-biased.2.journal", binary.LittleEndian.AppendUint64([]byte("BRESJRN1"), 2))
	variableFiles := func() map[string]string {
		files := make(map[string]string)
		for p := range fs.Files() {
			if strings.HasPrefix(p, "data/st-variable.") {
				data, _ := fs.ReadFile(p)
				files[p] = string(data)
			}
		}
		return files
	}
	before := variableFiles()
	ckpt, _ := fs.ReadFile("data/st-variable.2.ckpt")

	var logs lockedBuffer
	ts, srv, _ := newDurableServer(t, fs, WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	if resp, _ := do(t, http.MethodGet, ts.URL+"/streams/variable", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET variable: status %d, want 404", resp.StatusCode)
	}
	if got := streamProcessed(t, ts.URL, "biased"); got != 150 {
		t.Fatalf("biased processed %v, want its checkpoint's 150", got)
	}
	for _, req := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPut, "/streams/variable", goldenStreams[0].req},
		{http.MethodPost, "/streams/variable/transfer", ckpt},
	} {
		resp, body := do(t, req.method, ts.URL+req.path, req.body)
		if resp.StatusCode < 400 || !strings.Contains(fmt.Sprint(body["error"]), "BRESJRN1") {
			t.Fatalf("%s %s: status %d body %v, want a refusal naming BRESJRN1", req.method, req.path, resp.StatusCode, body)
		}
	}
	if q := scrape(t, ts.URL)["biasedres_durable_quarantined_total"]; q != 0 {
		t.Fatalf("quarantined %v files, want 0", q)
	}
	ts.Close()
	srv.Close()

	after := variableFiles()
	if len(after) != len(before) {
		t.Fatalf("variable files: %d before, %d after", len(before), len(after))
	}
	for p, data := range before {
		if after[p] != data {
			t.Errorf("%s changed", p)
		}
	}
	out := logs.String()
	if !strings.Contains(out, "level=ERROR") || !strings.Contains(out, "st-variable.2.journal") || !strings.Contains(out, "SIGTERM") {
		t.Fatalf("no Error log naming the journal and the remedy:\n%s", out)
	}
}
