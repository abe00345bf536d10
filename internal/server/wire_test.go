package server

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/wire"
)

// wireTestFrame packs n points of the given dim into a frame; values are
// a deterministic function of position so HTTP and wire batches match.
func wireTestFrame(n, dim int) *wire.Frame {
	f := &wire.Frame{Dim: dim, Count: n}
	f.Values = make([]float64, n*dim)
	for i := range f.Values {
		f.Values[i] = float64(i%17) * 0.25
	}
	f.Labels = make([]int32, n)
	for i := range f.Labels {
		f.Labels[i] = int32(i % 3)
	}
	return f
}

// wireHTTPPoints is the same batch in the JSON ingest shape.
func wireHTTPPoints(n, dim int) []IngestPoint {
	pts := make([]IngestPoint, n)
	for i := range pts {
		vals := make([]float64, dim)
		for d := range vals {
			vals[d] = float64((i*dim+d)%17) * 0.25
		}
		label := i % 3
		pts[i] = IngestPoint{Values: vals, Label: &label}
	}
	return pts
}

// snapshotBytes fetches a stream's binary checkpoint over the HTTP API.
func snapshotBytes(t *testing.T, srv *Server, name string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/streams/"+name+"/snapshot", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d body %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func createOn(t *testing.T, srv *Server, name string, req CreateRequest) {
	t.Helper()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	createStream(t, ts.URL, name, req)
}

// TestWireHTTPEquivalence is the acceptance equivalence test: the same
// batch pushed once through JSON HTTP and once through the binary wire
// path (end to end: client.WireConn → TCP → wire.Listener → IngestFrame)
// must leave byte-identical sampler state, proven on the marshaled
// checkpoint. Both servers share a seed, so any divergence in point
// content, ordering or RNG consumption shows up in the bytes. It runs for
// every policy plus a tier ladder, with synchronous ingest and with
// sharded async ingest (compared once both queues have drained).
func TestWireHTTPEquivalence(t *testing.T) {
	const points, dim = 300, 2
	configs := map[string]CreateRequest{
		"variable":    {Policy: "variable", Lambda: 1e-2, Capacity: 64},
		"biased":      {Policy: "biased", Lambda: 1e-2},
		"constrained": {Policy: "constrained", Lambda: 1e-2, Capacity: 64},
		"unbiased":    {Policy: "unbiased", Capacity: 64},
		"window":      {Policy: "window", Window: 100, Capacity: 16},
		"timedecay":   {Policy: "timedecay", Lambda: 1e-2, Capacity: 64},
		"ttbs":        {Policy: "ttbs", Lambda: 1e-2, Capacity: 64},
		"rtbs":        {Policy: "rtbs", Lambda: 1e-2, Capacity: 64},
		"tiered":      {Policy: "variable", Lambda: 1e-2, Capacity: 32, Tiers: 3},
	}
	cases := append(Policies(), "tiered")
	for _, c := range cases {
		if _, ok := configs[c]; !ok {
			t.Fatalf("policy %q has no equivalence config", c)
		}
	}
	modes := []struct {
		name string
		opts []Option
	}{{"sync", nil}, {"sharded", []Option{WithIngestShards(2, 8)}}}

	for _, mode := range modes {
		for _, c := range cases {
			t.Run(mode.name+"/"+c, func(t *testing.T) {
				cfg := configs[c]
				httpSrv := New(42, mode.opts...)
				defer httpSrv.Close()
				createOn(t, httpSrv, "s", cfg)
				ts := httptest.NewServer(httpSrv)
				defer ts.Close()
				resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points",
					IngestRequest{Points: wireHTTPPoints(points, dim)})
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
					t.Fatalf("HTTP ingest: status %d body %v", resp.StatusCode, body)
				}

				wireSrv := New(42, mode.opts...)
				defer wireSrv.Close()
				createOn(t, wireSrv, "s", cfg)
				wl, addr := startWireListener(t, wireSrv)
				defer wl.Close()
				wc, err := client.DialWire(addr, client.WireConnConfig{})
				if err != nil {
					t.Fatal(err)
				}
				defer wc.Close()
				var cpts []client.Point
				for _, ip := range wireHTTPPoints(points, dim) {
					cpts = append(cpts, client.Point{Values: ip.Values, Label: ip.Label})
				}
				if err := wc.Push("s", cpts); err != nil {
					t.Fatalf("wire push: %v", err)
				}
				waitPending(t, httpSrv, "s")
				waitPending(t, wireSrv, "s")

				httpCkpt := snapshotBytes(t, httpSrv, "s")
				wireCkpt := snapshotBytes(t, wireSrv, "s")
				if string(httpCkpt) != string(wireCkpt) {
					t.Fatalf("checkpoints diverge: HTTP %d bytes, wire %d bytes", len(httpCkpt), len(wireCkpt))
				}
				// Both paths must also agree on the arrival cursor.
				cursor := func(srv *Server) (uint64, int) {
					ms, _ := srv.lookup("s")
					ms.qmu.Lock()
					defer ms.qmu.Unlock()
					return ms.next, ms.dim
				}
				hNext, hDim := cursor(httpSrv)
				wNext, wDim := cursor(wireSrv)
				if hNext != wNext || hDim != wDim || hNext != points {
					t.Fatalf("cursors diverge: HTTP (next=%d dim=%d), wire (next=%d dim=%d), want next=%d",
						hNext, hDim, wNext, wDim, points)
				}
			})
		}
	}
}

// startWireListener serves srv's IngestFrame on a loopback TCP listener.
func startWireListener(t testing.TB, srv *Server) (*wire.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl := wire.NewListener(srv, wire.WithMetrics(srv.Metrics()))
	go wl.Serve(ln)
	return wl, ln.Addr().String()
}

// TestWireIngestValidation: the error replies are authoritative and
// consume nothing.
func TestWireIngestValidation(t *testing.T) {
	srv := New(1)
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 32})

	frameFor := func(mut func(*wire.Frame)) *wire.Frame {
		f := wireTestFrame(4, 2)
		mut(f)
		return f
	}
	cases := []struct {
		name string
		f    *wire.Frame
		want string
	}{
		{"unknown-stream", func() *wire.Frame {
			f := wireTestFrame(4, 2)
			f.Name = []byte("ghost")
			return f
		}(), "not found"},
		{"non-monotone-indices", frameFor(func(f *wire.Frame) {
			f.Name = []byte("s")
			f.Indices = []uint64{1, 3, 2, 4}
		}), "does not advance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := srv.IngestFrame(tc.f)
			if r.Status != wire.StatusError || !strings.Contains(r.Msg, tc.want) {
				t.Fatalf("reply = %+v, want error containing %q", r, tc.want)
			}
		})
	}

	// Commit dim via a good frame, then mismatch.
	good := wireTestFrame(4, 2)
	good.Name = []byte("s")
	if r := srv.IngestFrame(good); r.Status != wire.StatusOK {
		t.Fatalf("good frame rejected: %+v", r)
	}
	bad := wireTestFrame(4, 3)
	bad.Name = []byte("s")
	if r := srv.IngestFrame(bad); r.Status != wire.StatusError || !strings.Contains(r.Msg, "dim") {
		t.Fatalf("dim mismatch reply = %+v", r)
	}
	// Nothing from the rejected frames may have been consumed.
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	ms.qmu.Lock()
	next := ms.next
	ms.qmu.Unlock()
	if next != 4 {
		t.Fatalf("next = %d after one accepted frame of 4 points", next)
	}
	processed := ms.sm.Processed()
	if processed != 4 {
		t.Fatalf("sampler processed %d, want 4", processed)
	}
}

// TestWireIngestExplicitIndices: a frame carrying indices advances the
// cursor to its last index, and a replay of the same frame is refused —
// the idempotence hook reconnecting clients rely on.
func TestWireIngestExplicitIndices(t *testing.T) {
	srv := New(1)
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 32})
	f := wireTestFrame(3, 1)
	f.Name = []byte("s")
	f.Indices = []uint64{10, 11, 12}
	if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
		t.Fatalf("indexed frame rejected: %+v", r)
	}
	if r := srv.IngestFrame(f); r.Status != wire.StatusError {
		t.Fatalf("replayed frame accepted: %+v", r)
	}
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	ms.qmu.Lock()
	defer ms.qmu.Unlock()
	if ms.next != 12 {
		t.Fatalf("next = %d, want 12", ms.next)
	}
}

// TestWireIngestBackpressure: with the async queue full, IngestFrame
// answers NACK and consumes nothing; once the queue drains, the resend
// lands. The worker is pinned by holding the sampler lock.
func TestWireIngestBackpressure(t *testing.T) {
	srv := New(1, WithIngestShards(1, 1))
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 32})
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()

	unstall := stallSampler(ms) // pin the shard worker mid-apply
	var acked, nacked int
	var nack wire.Reply
	for i := 0; i < 8 && nacked == 0; i++ {
		f := wireTestFrame(4, 2)
		f.Name = []byte("s")
		switch r := srv.IngestFrame(f); r.Status {
		case wire.StatusOK:
			acked++
		case wire.StatusBackpressure:
			nacked++
			nack = r
		default:
			unstall()
			t.Fatalf("unexpected reply %+v", r)
		}
	}
	unstall()
	if nacked == 0 {
		t.Fatal("queue of 1 batch never backpressured")
	}
	if nack.RetryMS == 0 {
		t.Fatalf("NACK carries no retry hint: %+v", nack)
	}
	// Drain, then verify exactly the ACKed points were applied.
	deadline := time.Now().Add(5 * time.Second)
	for ms.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	processed := ms.sm.Processed()
	if processed != uint64(4*acked) {
		t.Fatalf("sampler processed %d, want %d (4 × %d ACKed frames)", processed, 4*acked, acked)
	}
	// And the resend after drain succeeds.
	f := wireTestFrame(4, 2)
	f.Name = []byte("s")
	if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
		t.Fatalf("post-drain resend rejected: %+v", r)
	}
}

// TestWireIngestClosedStream: frames for a deleted stream get an
// authoritative error, mirroring the HTTP path's 503-on-shutdown.
func TestWireIngestClosedStream(t *testing.T) {
	srv := New(1, WithIngestShards(1, 4))
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 8})
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	closeShard(ms)
	f := wireTestFrame(2, 1)
	f.Name = []byte("s")
	if r := srv.IngestFrame(f); r.Status != wire.StatusError || !strings.Contains(r.Msg, "shutting down") {
		t.Fatalf("reply = %+v, want shutting-down error", r)
	}
}

// TestWireIngestTimeDecay: wire frames reach time-decay streams through
// the synchronous path, advancing the decay clock one unit per point.
func TestWireIngestTimeDecay(t *testing.T) {
	srv := New(1, WithIngestShards(2, 4))
	defer srv.Close()
	createOn(t, srv, "td", CreateRequest{Policy: "timedecay", Lambda: 0.01, Capacity: 16})
	f := wireTestFrame(5, 2)
	f.Name = []byte("td")
	if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
		t.Fatalf("time-decay frame rejected: %+v", r)
	}
	srv.mu.RLock()
	ms := srv.streams["td"]
	srv.mu.RUnlock()
	processed := ms.sm.Processed()
	if processed != 5 {
		t.Fatalf("processed = %d, want 5", processed)
	}
}

// TestWireEndToEndAsync drives the full stack against an async server:
// WireConn batches, the listener decodes, frames ride the shard queue,
// and the pending gauge drains to zero.
func TestWireEndToEndAsync(t *testing.T) {
	srv := New(1, WithIngestShards(2, 8))
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "variable", Lambda: 1e-3, Capacity: 128})
	wl, addr := startWireListener(t, srv)
	defer wl.Close()

	wc, err := client.DialWire(addr, client.WireConnConfig{FlushSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const total = 500
	for i := 0; i < total; i++ {
		if err := wc.Add("s", client.Point{Values: []float64{float64(i), 1}}); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if err := wc.Close(); err != nil { // flushes the remainder
		t.Fatal(err)
	}
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	deadline := time.Now().Add(5 * time.Second)
	for ms.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("pending points did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	processed := ms.sm.Processed()
	if processed != total {
		t.Fatalf("processed = %d, want %d", processed, total)
	}
}

// TestWireConnReconnect: a server that drops the connection mid-exchange
// does not lose the frame — the client redials and resends.
func TestWireConnReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// First connection: read the frame, drop the connection without a
	// reply. Second connection: serve properly against a real server.
	srv := New(1)
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 16})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		io.ReadFull(conn, make([]byte, wire.HeaderLen)) // swallow the header
		conn.Close()                                    // transport failure before any reply
		wl := wire.NewListener(srv)
		wl.Serve(ln)
	}()

	wc, err := client.DialWire(ln.Addr().String(), client.WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	err = wc.Push("s", []client.Point{{Values: []float64{1}}, {Values: []float64{2}}})
	if err != nil {
		t.Fatalf("push across reconnect: %v", err)
	}
	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()
	processed := ms.sm.Processed()
	if processed != 2 {
		t.Fatalf("processed = %d, want 2", processed)
	}
}

// TestWireConnBackpressureRetry: the client waits out NACKs and the
// frame eventually lands exactly once.
func TestWireConnBackpressureRetry(t *testing.T) {
	srv := New(1, WithIngestShards(1, 1))
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 16})
	wl, addr := startWireListener(t, srv)
	defer wl.Close()

	srv.mu.RLock()
	ms := srv.streams["s"]
	srv.mu.RUnlock()

	wc, err := client.DialWire(addr, client.WireConnConfig{MaxRetries: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	// Wedge the worker long enough that the queue fills and at least one
	// push is NACKed, then release.
	unstall := stallSampler(ms)
	seed := []client.Point{{Values: []float64{0}}}
	if err := wc.Push("s", seed); err != nil { // worker picks this up, blocks on the sampler lock
		unstall()
		t.Fatal(err)
	}
	if err := wc.Push("s", seed); err != nil { // fills the queue
		unstall()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- wc.Push("s", seed) }() // must NACK until the lock lifts
	time.Sleep(50 * time.Millisecond)
	unstall()
	if err := <-done; err != nil {
		t.Fatalf("backpressured push failed: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ms.pending.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue did not drain")
		}
		time.Sleep(time.Millisecond)
	}
	processed := ms.sm.Processed()
	if processed != 3 {
		t.Fatalf("processed = %d, want exactly 3 (no duplicates, no drops)", processed)
	}
}

// TestWireConnServerError: an authoritative rejection surfaces as
// *client.WireError without retries.
func TestWireConnServerError(t *testing.T) {
	srv := New(1)
	wl, addr := startWireListener(t, srv)
	defer wl.Close()
	wc, err := client.DialWire(addr, client.WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	err = wc.Push("ghost", []client.Point{{Values: []float64{1}}})
	var werr *client.WireError
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v, want not-found WireError", err)
	}
	if !errors.As(err, &werr) {
		t.Fatalf("err type = %T, want *client.WireError", err)
	}
}
