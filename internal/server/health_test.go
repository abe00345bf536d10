package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// A /healthz waiting on one stream's sampler lock must not hold the stream
// map's lock: a create queued behind that hold would stall the ingest
// lookup of every other stream until the sampler came free.
func TestHealthzDoesNotStallIngest(t *testing.T) {
	srv := New(1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for _, name := range []string{"a", "b"} {
		createStream(t, ts.URL, name, CreateRequest{Policy: "variable", Lambda: 1e-2, Capacity: 50})
	}
	a, _ := srv.lookup("a")
	unstall := sync.OnceFunc(stallSampler(a))
	defer unstall()

	call := func(method, path string, body []byte) chan error {
		done := make(chan error, 1)
		go func() {
			req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
			if err == nil {
				var resp *http.Response
				if resp, err = http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
			done <- err
		}()
		return done
	}
	health := call(http.MethodGet, "/healthz", nil)
	waitStack(t, nil, "(*Server).handleHealth", "(*Synchronized).Processed")
	created := call(http.MethodPut, "/streams/c", []byte(`{"policy":"variable","lambda":0.01,"capacity":50}`))
	// The create either finishes or parks on the stream map's lock.
	waitStack(t, created, "(*Server).handleCreate", "(*RWMutex).Lock")

	hc := &http.Client{Timeout: 2 * time.Second}
	resp, err := hc.Post(ts.URL+"/streams/b/points", "application/json",
		strings.NewReader(`{"points":[{"values":[1,2]}]}`))
	if err != nil {
		t.Fatalf("ingest into b while /healthz waits on a's sampler: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest into b: status %d", resp.StatusCode)
	}

	unstall()
	for _, done := range []chan error{health, created} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// waitStack waits until some goroutine's stack holds every frame, or done
// (when non-nil) yields; it fails the test after 5 s.
func waitStack(t *testing.T, done chan error, frames ...string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		select {
		case err := <-done:
			done <- err
			return
		default:
		}
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if containsAll(g, frames) {
				return
			}
		}
	}
	t.Fatalf("no goroutine reached %v", frames)
}

func containsAll(s string, parts []string) bool {
	for _, p := range parts {
		if !strings.Contains(s, p) {
			return false
		}
	}
	return true
}
