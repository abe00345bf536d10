package server

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/durable"
)

// stallSyncDirFS holds the first SyncDir after arm until release: the
// directory fsync every durable create pays inside durable.Attach.
type stallSyncDirFS struct {
	durable.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (f *stallSyncDirFS) arm() (entered chan struct{}, release func()) {
	f.entered, f.release = make(chan struct{}), make(chan struct{})
	f.armed.Store(true)
	return f.entered, sync.OnceFunc(func() { close(f.release) })
}

func (f *stallSyncDirFS) SyncDir(dir string) error {
	if f.armed.CompareAndSwap(true, false) {
		close(f.entered)
		<-f.release
	}
	return f.FS.SyncDir(dir)
}

// A create writes its first checkpoint with the name reserved but the
// stream map unlocked: while its directory fsync is held, other streams'
// HTTP and wire ingest answer, the reserved name is 404 to reads and 409
// to a second create, and an install that Close overtakes leaves nothing
// for a restart to recover.
func TestInstallDoesNotStallIngest(t *testing.T) {
	fs := &stallSyncDirFS{FS: durable.NewMemFS()}
	ts, srv, _ := newDurableServer(t, fs)
	createStream(t, ts.URL, "b", CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	wl, addr := startWireListener(t, srv)
	defer wl.Close()
	wc, err := client.DialWire(addr, client.WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	hc := &http.Client{Timeout: 2 * time.Second}
	call := func(method, path, body string) chan int {
		done := make(chan int, 1)
		go func() {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			if err != nil {
				done <- 0
				return
			}
			resp, err := hc.Do(req)
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		return done
	}
	const create = `{"policy":"variable","lambda":0.01,"capacity":50}`
	entered, release := fs.arm()
	defer release()
	created := call(http.MethodPut, "/streams/c", create)
	<-entered

	if code := <-call(http.MethodPost, "/streams/b/points", `{"points":[{"values":[1,2]}]}`); code != http.StatusOK {
		t.Fatalf("HTTP ingest into b while c's create is held: status %d (0 = no answer in 2 s)", code)
	}
	pushed := make(chan error, 1)
	go func() { pushed <- wc.Push("b", []client.Point{{Values: []float64{3, 4}}}) }()
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatalf("wire ingest into b while c's create is held: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("wire ingest into b got no answer while c's create is held")
	}
	if code := <-call(http.MethodGet, "/streams/c", ""); code != http.StatusNotFound {
		t.Fatalf("stats of the reserved c: status %d, want 404", code)
	}
	if code := <-call(http.MethodPut, "/streams/c", create); code != http.StatusConflict {
		t.Fatalf("second create of the reserved c: status %d, want 409", code)
	}
	release()
	if code := <-created; code != http.StatusCreated {
		t.Fatalf("held create of c: status %d, want 201", code)
	}

	// Close overtakes an install held inside Attach: the install is
	// refused and takes its files with it.
	entered, release = fs.arm()
	defer release()
	refused := make(chan int, 1)
	go func() {
		_, code, _ := srv.install("d", CreateRequest{Policy: "unbiased", Capacity: 8}, nil, 1)
		refused <- code
	}()
	<-entered
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	for srv.ready.Load() {
		time.Sleep(time.Millisecond)
	}
	release()
	if code := <-refused; code != http.StatusServiceUnavailable {
		t.Fatalf("install overtaken by Close: status %d, want 503", code)
	}
	<-closed

	_, restarted, _ := newDurableServer(t, fs)
	var names []string
	for _, ns := range restarted.streamList() {
		names = append(names, ns.name)
	}
	if got := strings.Join(names, ","); got != "b,c" {
		t.Fatalf("streams recovered after restart: %s, want b,c", got)
	}
}

// A delete holds the stream's name until its files are gone: a create of
// the same name while the delete is under way answers 409, so the
// delete's file removal cannot take the new stream's checkpoint chain
// with it, and the stream created after the delete survives a restart.
func TestDeleteHoldsNameUntilFilesRemoved(t *testing.T) {
	fs := durable.NewMemFS()
	ts, srv, _ := newDurableServer(t, fs)
	req := CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50}
	createStream(t, ts.URL, "a", req)
	ingest(t, ts.URL, "a", floatPoints(10, 0))

	// The delete unregisters a, then waits on the old stream's queue lock
	// in closeShard before it removes the files.
	old, _ := srv.lookup("a")
	old.qmu.Lock()
	deleted := make(chan int, 1)
	go func() {
		code := 0
		if req, err := http.NewRequest(http.MethodDelete, ts.URL+"/streams/a", nil); err == nil {
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
				code = resp.StatusCode
			}
		}
		deleted <- code
	}()
	for _, live := srv.lookup("a"); live; _, live = srv.lookup("a") {
		time.Sleep(time.Millisecond)
	}
	resp, _ := do(t, http.MethodPut, ts.URL+"/streams/a", req)
	racing := resp.StatusCode
	old.qmu.Unlock()
	if code := <-deleted; code != http.StatusNoContent {
		t.Fatalf("delete of a: status %d, want 204", code)
	}
	if racing != http.StatusCreated {
		createStream(t, ts.URL, "a", req)
	}
	ingest(t, ts.URL, "a", floatPoints(5, 0))
	srv.Close()

	restarted, _, _ := newDurableServer(t, fs)
	if _, body := do(t, http.MethodGet, restarted.URL+"/streams/a", nil); body["processed"] != 5.0 {
		t.Fatalf("a after restart: %v, want 5 points processed (the create during the delete answered %d)", body, racing)
	}
	if racing != http.StatusConflict {
		t.Fatalf("create of a while its delete was under way: status %d, want 409", racing)
	}
}
