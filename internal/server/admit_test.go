package server

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/wire"
)

// admissionState is the ingest bookkeeping a refused batch must leave
// alone.
type admissionState struct {
	next    uint64
	dim     int
	pending int64
}

func readAdmission(ms *managedStream) admissionState {
	ms.qmu.Lock()
	defer ms.qmu.Unlock()
	return admissionState{ms.next, ms.dim, ms.pending.Load()}
}

// dimPoints is one point per entry of dims, each of that dimension.
func dimPoints(dims ...int) []IngestPoint {
	pts := make([]IngestPoint, len(dims))
	for i, d := range dims {
		pts[i].Values = make([]float64, d)
	}
	return pts
}

// fillQueue stalls ms's shard worker on the sampler lock and fills the
// queue (capacity 1) behind it; the returned func releases the worker.
func fillQueue(t *testing.T, srv *Server, ms *managedStream) func() {
	t.Helper()
	unstall := stallSampler(ms)
	f := wireTestFrame(4, 2)
	f.Name = []byte("s")
	if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
		t.Fatalf("first frame: %+v", r)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(ms.shard.ch) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first frame")
		}
		time.Sleep(time.Millisecond)
	}
	if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
		t.Fatalf("second frame: %+v", r)
	}
	return unstall
}

// TestIngestRefusalParity runs every refusal through each transport that
// can carry it, against a stream that already holds four 2-dim points.
// HTTP answers the status; wire answers StatusBackpressure for 429 and
// StatusError for the rest. Either way the batch consumes nothing: next,
// dim and pending are unchanged, and once drained the sampler has
// processed exactly the points admitted before it. A batch the client can
// refuse before sending (clientRefused) a WireConn refuses with the
// node's reply text as a *client.WireError, sending no byte.
func TestIngestRefusalParity(t *testing.T) {
	frame := func(mut func(*wire.Frame)) *wire.Frame {
		f := wireTestFrame(4, 2)
		f.Name = []byte("s")
		if mut != nil {
			mut(f)
		}
		return f
	}
	behind := 0.5
	cases := []struct {
		name   string
		policy string // "" = unbiased
		async  bool
		setup  func(t *testing.T, srv *Server, ms *managedStream) (undo func())
		stream string // the stream posted to; "" = "s"
		body   any    // the HTTP body; nil when HTTP cannot carry the case
		frame  *wire.Frame
		status int
		want   string // in the error message, when the reply has one
	}{
		{name: "unknown stream", stream: "ghost",
			body:   IngestRequest{Points: dimPoints(2)},
			frame:  frame(func(f *wire.Frame) { f.Name = []byte("ghost") }),
			status: http.StatusNotFound, want: "not found"},
		{name: "closed stream",
			setup: func(_ *testing.T, _ *Server, ms *managedStream) func() { closeShard(ms); return func() {} },
			body:  IngestRequest{Points: dimPoints(2)}, frame: frame(nil),
			status: http.StatusServiceUnavailable, want: "shutting down"},
		{name: "closed async stream", async: true,
			setup: func(_ *testing.T, _ *Server, ms *managedStream) func() { closeShard(ms); return func() {} },
			body:  IngestRequest{Points: dimPoints(2)}, frame: frame(nil),
			status: http.StatusServiceUnavailable, want: "shutting down"},
		{name: "closed time-decay stream", policy: "timedecay",
			setup: func(_ *testing.T, _ *Server, ms *managedStream) func() { closeShard(ms); return func() {} },
			body:  IngestRequest{Points: dimPoints(2)}, frame: frame(nil),
			status: http.StatusServiceUnavailable, want: "shutting down"},
		{name: "dim mismatch",
			body:   IngestRequest{Points: dimPoints(3, 3)},
			frame:  func() *wire.Frame { f := wireTestFrame(4, 3); f.Name = []byte("s"); return f }(),
			status: http.StatusBadRequest, want: "dim"},
		{name: "mixed dims", body: IngestRequest{Points: dimPoints(2, 3)},
			status: http.StatusBadRequest, want: "dim"},
		{name: "no values", body: IngestRequest{Points: dimPoints(2, 0)},
			status: http.StatusBadRequest, want: "no values"},
		{name: "no values first", body: IngestRequest{Points: dimPoints(0, 2)},
			status: http.StatusBadRequest, want: "point 0 has no values"},
		{name: "no points", body: IngestRequest{Points: []IngestPoint{}},
			status: http.StatusBadRequest, want: "no points"},
		{name: "out-of-range number", body: []byte(`{"points":[{"values":[1e999,1]}]}`),
			status: http.StatusBadRequest, want: "1e999"},
		{name: "NaN value", frame: frame(func(f *wire.Frame) { f.Values[5] = math.NaN() }),
			status: http.StatusBadRequest, want: "non-finite"},
		{name: "infinite value", frame: frame(func(f *wire.Frame) { f.Values[0] = math.Inf(-1) }),
			status: http.StatusBadRequest, want: "non-finite"},
		{name: "infinite weight", frame: frame(func(f *wire.Frame) { f.Weights = []float64{1, 1, math.Inf(1), 1} }),
			status: http.StatusBadRequest, want: "non-finite"},
		{name: "full queue", async: true,
			setup: fillQueue,
			body:  IngestRequest{Points: dimPoints(2)}, frame: frame(nil),
			status: http.StatusTooManyRequests, want: "queue"},
		{name: "non-monotone indices",
			frame:  frame(func(f *wire.Frame) { f.Indices = []uint64{5, 7, 6, 8} }),
			status: http.StatusBadRequest, want: "does not advance"},
		{name: "replayed indices",
			frame:  frame(func(f *wire.Frame) { f.Indices = []uint64{1, 2, 3, 4} }),
			status: http.StatusBadRequest, want: "does not advance"},
		{name: "timestamp behind the clock", policy: "timedecay",
			body:   IngestRequest{Points: []IngestPoint{{Values: []float64{1, 2}, TS: &behind}}},
			frame:  frame(func(f *wire.Frame) { stampFrame(f, 5, 6, behind, 7) }),
			status: http.StatusBadRequest, want: "precedes"},
		{name: "NaN timestamp", policy: "timedecay",
			frame:  frame(func(f *wire.Frame) { stampFrame(f, 5, math.NaN(), 6, 7) }),
			status: http.StatusBadRequest, want: "non-finite"},
		{name: "infinite timestamp", policy: "timedecay",
			frame:  frame(func(f *wire.Frame) { stampFrame(f, 5, 6, 7, math.Inf(1)) }),
			status: http.StatusBadRequest, want: "non-finite"},
	}
	clientRefused := map[string]bool{"mixed dims": true, "no values": true, "no values first": true,
		"NaN value": true, "infinite value": true, "infinite weight": true, "NaN timestamp": true, "infinite timestamp": true}
	for _, tc := range cases {
		for _, transport := range []string{"http", "wire", "wireconn"} {
			if transport == "http" && tc.body == nil || transport == "wire" && tc.frame == nil ||
				transport == "wireconn" && !clientRefused[tc.name] {
				continue
			}
			t.Run(tc.name+"/"+transport, func(t *testing.T) {
				var opts []Option
				if tc.async {
					opts = append(opts, WithIngestShards(1, 1))
				}
				srv := New(1, opts...)
				defer srv.Close()
				ts := httptest.NewServer(srv)
				defer ts.Close()
				policy := tc.policy
				if policy == "" {
					policy = "unbiased"
				}
				createStream(t, ts.URL, "s", CreateRequest{Policy: policy, Lambda: 0.01, Capacity: 32})
				prime := dimPoints(2, 2, 2, 2)
				for i := range prime {
					at := float64(i + 1)
					prime[i].TS = &at
				}
				if resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: prime}); resp.StatusCode/100 != 2 {
					t.Fatalf("priming: status %d body %v", resp.StatusCode, body)
				}
				waitPending(t, srv, "s")
				ms, _ := srv.lookup("s")
				undo := func() {}
				if tc.setup != nil {
					undo = tc.setup(t, srv, ms)
				}
				before := readAdmission(ms)

				var msg string
				if transport == "http" {
					name := tc.stream
					if name == "" {
						name = "s"
					}
					resp, body := do(t, http.MethodPost, ts.URL+"/streams/"+name+"/points", tc.body)
					msg, _ = body["error"].(string)
					if resp.StatusCode != tc.status {
						t.Fatalf("status %d body %v, want %d", resp.StatusCode, body, tc.status)
					}
				} else if transport == "wireconn" {
					msg = wireConnRefusal(t, srv, tc.body, tc.frame)
				} else {
					r := srv.IngestFrame(tc.frame)
					msg = r.Msg
					var want byte = wire.StatusError
					if tc.status == http.StatusTooManyRequests {
						want = wire.StatusBackpressure
					}
					if r.Status != want {
						t.Fatalf("reply %+v, want status %d", r, want)
					}
				}
				if msg != "" && !strings.Contains(msg, tc.want) {
					t.Errorf("message %q does not mention %q", msg, tc.want)
				}
				if after := readAdmission(ms); after != before {
					t.Errorf("refused batch moved the bookkeeping: %+v -> %+v", before, after)
				}
				undo()
				waitPending(t, srv, "s")
				if p := ms.sm.Processed(); p != before.next {
					t.Errorf("processed %d, want %d: the refused batch reached the sampler", p, before.next)
				}
			})
		}
	}
}

// wireConnRefusal pushes a refusal row's batch, its HTTP body's points
// or its frame's, through a WireConn and returns the refusal's message. It
// fails t unless Push refuses the batch with a *client.WireError before
// sending anything, in the words srv replies to the same batch.
func wireConnRefusal(t *testing.T, srv *Server, body any, frame *wire.Frame) string {
	t.Helper()
	var pts []client.Point
	if req, ok := body.(IngestRequest); ok {
		pts = req.Points
	} else {
		pts = frame.IngestPoints()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan int64)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			sent <- -1
			return
		}
		defer conn.Close()
		n, _ := io.Copy(io.Discard, conn)
		sent <- n
	}()
	wc, err := client.DialWire(ln.Addr().String(), client.WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The listener never replies, so a frame sent blocks Push until ctx ends.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var refused *client.WireError
	if err := wc.PushContext(ctx, "s", pts); !errors.As(err, &refused) {
		t.Fatalf("WireConn Push: %v, want a *client.WireError", err)
	}
	wc.Close()
	if n := <-sent; n != 0 {
		t.Errorf("WireConn sent %d bytes of a batch it refused", n)
	}
	var f wire.Frame
	f.SetPoints(pts)
	f.Name = []byte("s")
	if r := srv.IngestFrame(&f); refused.Msg != r.Msg {
		t.Errorf("WireConn refused with %q, the node replies %q", refused.Msg, r.Msg)
	}
	return refused.Msg
}

// stampFrame gives every point of f a timestamp.
func stampFrame(f *wire.Frame, ts ...float64) {
	f.TS, f.HasTS = ts, make([]bool, len(ts))
	for i := range f.HasTS {
		f.HasTS[i] = true
	}
}

// TestIngestRefusesExhaustedIndices: once explicit indices have taken the
// stream to the top of the index space, a batch to be sequenced is
// refused instead of wrapping its indices around to 0.
func TestIngestRefusesExhaustedIndices(t *testing.T) {
	srv := New(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	createStream(t, ts.URL, "s", CreateRequest{Policy: "unbiased", Capacity: 16})
	f := wireTestFrame(2, 1)
	f.Name = []byte("s")
	f.Indices = []uint64{math.MaxUint64 - 1, math.MaxUint64}
	if r := srv.IngestFrame(f); r.Status != wire.StatusOK {
		t.Fatalf("indexed frame: reply %+v", r)
	}
	f.Indices = nil
	if r := srv.IngestFrame(f); r.Status != wire.StatusError || !strings.Contains(r.Msg, "exhausted") {
		t.Errorf("wire: reply %+v, want an exhausted-indices error", r)
	}
	resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: dimPoints(1)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("HTTP: status %d body %v, want 400", resp.StatusCode, body)
	}
	ms, _ := srv.lookup("s")
	if st := readAdmission(ms); st.next != math.MaxUint64 || ms.sm.Processed() != 2 {
		t.Fatalf("next %d, processed %d after refusals; want %d and 2", st.next, ms.sm.Processed(), uint64(math.MaxUint64))
	}
}

// TestDurableIngestAfterCloseRefused: once Close has begun, ingest into
// a synchronous stream answers 503 in every mode instead of acknowledging
// points the final checkpoint no longer covers.
func TestDurableIngestAfterCloseRefused(t *testing.T) {
	for _, policy := range []string{"unbiased", "timedecay"} {
		t.Run(policy, func(t *testing.T) {
			fs := durable.NewMemFS()
			ts, srv, _ := newDurableServer(t, fs)
			createStream(t, ts.URL, "s", CreateRequest{Policy: policy, Lambda: 0.01, Capacity: 16})
			ingest(t, ts.URL, "s", floatPoints(3, 0))
			srv.Close()
			resp, body := do(t, http.MethodPost, ts.URL+"/streams/s/points", IngestRequest{Points: floatPoints(2, 3)})
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("ingest after Close: status %d body %v, want 503", resp.StatusCode, body)
			}
			ts.Close()

			ts2, _, _ := newDurableServer(t, fs)
			if got := streamProcessed(t, ts2.URL, "s"); got != 3 {
				t.Fatalf("reopened stream processed %v, want 3", got)
			}
		})
	}
}

// TestWireIngestRefusesNonFinite: a frame carrying NaN or ±Inf is refused
// whole, so the stream's reads keep answering JSON: a kept NaN makes
// encoding fail after the 200 header is written.
func TestWireIngestRefusesNonFinite(t *testing.T) {
	srv := New(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	createStream(t, ts.URL, "s", CreateRequest{Policy: "unbiased", Capacity: 16})
	f := wireTestFrame(4, 1)
	f.Name = []byte("s")
	f.Values[1], f.Values[2] = math.NaN(), math.Inf(1)
	if r := srv.IngestFrame(f); r.Status != wire.StatusError {
		t.Fatalf("non-finite frame: reply %+v, want an error", r)
	}
	good := wireTestFrame(4, 1)
	good.Name = []byte("s")
	if r := srv.IngestFrame(good); r.Status != wire.StatusOK {
		t.Fatalf("finite frame: reply %+v", r)
	}
	for _, path := range []string{"/query?type=average&h=0", "/sample", "/accum"} {
		resp, body := do(t, http.MethodGet, ts.URL+"/streams/s"+path, nil)
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s: status %d body %v", path, resp.StatusCode, body)
		}
	}
	if p := streamProcessed(t, ts.URL, "s"); p != 4 {
		t.Fatalf("processed %v, want the 4 finite points", p)
	}
}

// FuzzIngestFrame drives decoded frames through IngestFrame on one sync
// and one async stream and one sync time-decay stream. A refused frame
// leaves next, dim, pending and Processed() unchanged; an accepted frame
// advances Processed() by its count; next never moves backwards; every
// point a stream keeps is finite; and the time-decay clock stays finite.
func FuzzIngestFrame(f *testing.F) {
	for _, shape := range []struct {
		n, dim  int
		indices bool
	}{{1, 1, false}, {4, 2, false}, {3, 1, true}, {8, 3, true}} {
		fr := wireTestFrame(shape.n, shape.dim)
		if shape.indices {
			fr.Indices = make([]uint64, shape.n)
			for i := range fr.Indices {
				fr.Indices[i] = uint64(10 + 2*i)
			}
		}
		b, err := wire.AppendFrame(nil, "s", fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	stamped := wireTestFrame(3, 2)
	stampFrame(stamped, 2, 2.5, 9)
	b, err := wire.AppendFrame(nil, "s", stamped)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	syncSrv, asyncSrv, timedSrv := New(1), New(1, WithIngestShards(1, 4)), New(1)
	servers := []*Server{syncSrv, asyncSrv, timedSrv}
	for _, srv := range servers {
		defer srv.Close()
		req := CreateRequest{Policy: "unbiased", Capacity: 16}
		if srv == timedSrv {
			req = CreateRequest{Policy: "timedecay", Lambda: 0.01, Capacity: 16}
		}
		if _, _, err := srv.install("s", req, nil, 1); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr wire.Frame
		if _, err := wire.DecodeFrame(data, &fr); err != nil {
			return
		}
		for _, srv := range servers {
			ms, _ := srv.lookup("s")
			before, processed := readAdmission(ms), ms.sm.Processed()
			r := srv.IngestFrame(&fr)
			after := readAdmission(ms)
			if r.Status != wire.StatusOK && after != before {
				t.Fatalf("refused frame (%+v) moved the bookkeeping: %+v -> %+v", r, before, after)
			}
			if after.next < before.next {
				t.Fatalf("next moved backwards: %d -> %d", before.next, after.next)
			}
			waitPending(t, srv, "s")
			want := processed
			if r.Status == wire.StatusOK {
				want += uint64(fr.Count)
			}
			if got := ms.sm.Processed(); got != want {
				t.Fatalf("reply %+v for %d points: processed %d -> %d, want %d", r, fr.Count, processed, got, want)
			}
			for _, p := range ms.sm.Points() {
				for _, v := range append([]float64{p.Weight}, p.Values...) {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("stream keeps a non-finite value %v", v)
					}
				}
			}
			ms.sm.View(func(sm core.Sampler) {
				if td, ok := core.AsTimed(sm); ok && (math.IsNaN(td.Now()) || math.IsInf(td.Now(), 0)) {
					t.Fatalf("time-decay clock is %v", td.Now())
				}
			})
		}
	})
}
