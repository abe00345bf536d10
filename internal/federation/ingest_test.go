package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"biasedres/internal/client"
	"biasedres/internal/faulty"
	"biasedres/internal/wire"
)

// ingestHTTP posts body to a coordinator stream's ingest route and
// returns the status and the Retry-After header.
func ingestHTTP(t testing.TB, fedURL, stream string, body any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(fedURL+"/streams/"+stream+"/points", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// nodeProcessed sums the stream positions of every stream on the nodes.
func nodeProcessed(t testing.TB, nodes []*node) uint64 {
	t.Helper()
	var sum uint64
	for _, n := range nodes {
		names, err := n.c.ListStreams()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			st, err := n.c.Stats(name)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.Processed
		}
	}
	return sum
}

// holder returns the node holding a single-replica shard.
func holder(t testing.TB, co *Coordinator, nodes []*node, name string, shard int) *node {
	t.Helper()
	addr := co.placement(name, shard, 1)[0].addr
	for _, n := range nodes {
		if n.ts.URL == addr {
			return n
		}
	}
	t.Fatalf("no node at %s", addr)
	return nil
}

// TestCoordinatorIngestParity: HTTP and wire ingest share one admission
// step, so a refusal answers alike on both: 404 for an unknown stream,
// 400 for a batch no shard may apply, 429 with the node's retry hint for
// backpressure (a NACK on the wire), and 503 when no replica
// acknowledged. A batch refused before the fan-out sends no node a
// request, and no refused batch moves any node's stream position.
func TestCoordinatorIngestParity(t *testing.T) {
	nodes := startNodes(t, 2)
	co, fed := startCoordinator(t, nodes, testCfg())

	pt := func(vals ...float64) client.Point { return client.Point{Values: vals} }
	batch := func(pts ...client.Point) map[string]any { return map[string]any{"points": pts} }
	frame := func(dim int, values ...float64) *wire.Frame {
		return &wire.Frame{Dim: dim, Count: len(values) / max(dim, 1), Values: values}
	}
	// The frames a shard would refuse or mis-sequence: one shard refusing
	// its part while the others apply theirs is the partial apply the
	// pre-fan-out checks exist to prevent.
	wholeFrame := func(mut func(f *wire.Frame)) *wire.Frame {
		f := frame(1, 1, 2, 3, 4)
		mut(f)
		return f
	}
	rows := []struct {
		name   string
		target string              // stream addressed; "" is the row's own stream
		seed   func(stream string) // runs after the row's stream is created
		fault  func(on bool)       // switched on around the requests
		body   any                 // HTTP body; nil sends no HTTP request
		frame  *wire.Frame         // nil sends no frame
		status int                 // HTTP status; the wire wants NACK for 429, else an error
		preFan bool                // refused before any node is asked
	}{
		{name: "unknown stream", target: "nope", body: batch(pt(1, 2)), frame: frame(2, 1, 2),
			status: http.StatusNotFound, preFan: true},
		{name: "no points", body: batch(), frame: frame(2),
			status: http.StatusBadRequest, preFan: true},
		{name: "point without values", body: batch(pt(1, 2), pt()),
			status: http.StatusBadRequest, preFan: true},
		{name: "mixed dims", body: batch(pt(1, 1), pt(10), pt(1, 1), pt(10)),
			status: http.StatusBadRequest, preFan: true},
		{name: "dim against the stream's",
			seed: func(stream string) {
				if status, _ := ingestHTTP(t, fed.URL, stream, batch(pt(1, 2), pt(3, 4))); status != http.StatusOK {
					t.Fatalf("seeding %s: status %d", stream, status)
				}
			},
			body: batch(pt(1, 2, 3), pt(4, 5, 6)), frame: frame(3, 1, 2, 3, 4, 5, 6),
			status: http.StatusBadRequest, preFan: true},
		{name: "NaN value", frame: wholeFrame(func(f *wire.Frame) { f.Values[1] = math.NaN() }),
			status: http.StatusBadRequest, preFan: true},
		{name: "Inf value", frame: wholeFrame(func(f *wire.Frame) { f.Values[3] = math.Inf(-1) }),
			status: http.StatusBadRequest, preFan: true},
		{name: "Inf weight", frame: wholeFrame(func(f *wire.Frame) { f.Weights = []float64{1, math.Inf(1), 1, 1} }),
			status: http.StatusBadRequest, preFan: true},
		{name: "indices", frame: wholeFrame(func(f *wire.Frame) { f.Indices = []uint64{10, 11, 12, 13} }),
			status: http.StatusBadRequest, preFan: true},
		{name: "first index", frame: wholeFrame(func(f *wire.Frame) { f.First = 10 }),
			status: http.StatusBadRequest, preFan: true},
		{name: "NaN timestamp", frame: wholeFrame(func(f *wire.Frame) {
			f.TS, f.HasTS = []float64{1, 2, math.NaN(), 4}, []bool{true, true, true, true}
		}), status: http.StatusBadRequest, preFan: true},
		{name: "node refusal",
			// Both shards hold dim-3 points the coordinator never saw, so
			// it passes a dim-2 batch on and each node refuses its part.
			seed: func(stream string) {
				for shard := 0; shard < 2; shard++ {
					n := holder(t, co, nodes, stream, shard)
					if _, err := n.c.Push(shardStream(stream, shard), []client.Point{pt(1, 2, 3)}); err != nil {
						t.Fatal(err)
					}
				}
			},
			body: batch(pt(1, 2), pt(3, 4)), frame: frame(2, 1, 2, 3, 4),
			status: http.StatusBadRequest},
		{name: "backpressure",
			fault: func(on bool) {
				for _, n := range nodes {
					n.busy.Store(on)
				}
			},
			body: batch(pt(1, 2), pt(3, 4)), frame: frame(2, 1, 2, 3, 4),
			status: http.StatusTooManyRequests},
		{name: "all replicas down",
			fault: func(on bool) {
				for _, n := range nodes {
					n.down.Store(on)
				}
			},
			body: batch(pt(1, 2), pt(3, 4)), frame: frame(2, 1, 2, 3, 4),
			status: http.StatusServiceUnavailable},
	}
	for i, row := range rows {
		stream := fmt.Sprintf("p%d", i)
		if status, body := fedDo(t, http.MethodPut, fed.URL+"/streams/"+stream, managedCfg(2, 1)); status != http.StatusCreated {
			t.Fatalf("%s: create: status %d body %v", row.name, status, body)
		}
		if row.seed != nil {
			row.seed(stream)
		}
		target := stream
		if row.target != "" {
			target = row.target
		}
		processed := nodeProcessed(t, nodes)
		var ingests [2]int32
		for j, n := range nodes {
			ingests[j] = n.ingests.Load()
		}
		if row.fault != nil {
			row.fault(true)
		}

		if row.body != nil {
			status, retry := ingestHTTP(t, fed.URL, target, row.body)
			if status != row.status {
				t.Errorf("%s over HTTP: status %d, want %d", row.name, status, row.status)
			}
			if row.status == http.StatusTooManyRequests && retry != "1" {
				t.Errorf("%s over HTTP: Retry-After %q, want the node's 1", row.name, retry)
			}
		}
		if row.frame != nil {
			row.frame.Name = []byte(target)
			reply := co.IngestFrame(row.frame)
			switch {
			case row.status == http.StatusTooManyRequests:
				if reply.Status != wire.StatusBackpressure || reply.RetryMS != 1000 {
					t.Errorf("%s over wire: reply %+v, want a NACK with the node's 1000ms hint", row.name, reply)
				}
			case reply.Status != wire.StatusError:
				t.Errorf("%s over wire: reply %+v, want an error", row.name, reply)
			}
		}

		if row.fault != nil {
			row.fault(false)
		}
		if got := nodeProcessed(t, nodes); got != processed {
			t.Errorf("%s: node stream positions moved from %d to %d", row.name, processed, got)
		}
		if row.preFan {
			for j, n := range nodes {
				if got := n.ingests.Load(); got != ingests[j] {
					t.Errorf("%s: node %d got %d ingest requests, want none", row.name, j, got-ingests[j])
				}
			}
		}
	}
	// The refused mixed-dim batch left nothing for a merge to mix up.
	if est, _ := mustCount(t, fed.URL, "p3", 0); est != 0 {
		t.Fatalf("count after the refused mixed-dim batch = %v, want 0", est)
	}
}

// TestCoordinatorBodyLimit: a body over the coordinator's 8 MiB limit
// answers 413 on every route that reads one, and reaches no node.
func TestCoordinatorBodyLimit(t *testing.T) {
	nodes := startNodes(t, 1)
	_, fed := startCoordinator(t, nodes, testCfg())
	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(1, 1)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	// Leading whitespace makes a valid JSON body of any size.
	pad := strings.Repeat(" ", maxBodyBytes+1<<20)
	for _, req := range []struct{ method, path, body string }{
		{http.MethodPost, "/streams/s/points", `{"points":[{"values":[1,2]}]}`},
		{http.MethodPut, "/streams/big", `{"policy":"unbiased","capacity":16}`},
		{http.MethodPost, "/peers", `{"addr":"http://127.0.0.1:1"}`},
	} {
		r, err := http.NewRequest(req.method, fed.URL+req.path, strings.NewReader(pad+req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with a 9 MiB body: status %d, want 413", req.method, req.path, resp.StatusCode)
		}
	}
	if n := nodes[0].ingests.Load(); n != 0 {
		t.Fatalf("the node got %d ingest requests, want none", n)
	}
}

// nackSink is a wire listener backend that is always backpressured.
type nackSink struct{}

func (nackSink) IngestFrame(*wire.Frame) wire.Reply { return wire.Nack(20) }

// startWireNode starts a data node whose wire listener serves sink (the
// node itself when nil) behind a fault proxy, and advertises the proxy's
// address in the node's /healthz.
func startWireNode(t testing.TB, seed uint64, sink wire.Sink) (*node, *faulty.Proxy) {
	t.Helper()
	n := startNode(t, seed)
	if sink == nil {
		sink = n.srv
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl := wire.NewListener(sink)
	go wl.Serve(ln)
	t.Cleanup(func() { wl.Close() })
	px, err := faulty.New(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	n.srv.SetWireAddr(px.Addr())
	return n, px
}

// pooledWires returns the coordinator's pooled wire conns by peer.
func pooledWires(co *Coordinator) map[string]*client.WireConn {
	co.wmu.Lock()
	defer co.wmu.Unlock()
	out := make(map[string]*client.WireConn, len(co.wires))
	for addr, wc := range co.wires {
		out[addr] = wc
	}
	return out
}

// TestWireReplicaBackfills: over wire-advertising nodes, a replica that
// lost its shard stream refuses the frame whole; the coordinator learns
// the 404 over HTTP, re-creates the stream and resends over the wire.
func TestWireReplicaBackfills(t *testing.T) {
	n0, _ := startWireNode(t, 1, nil)
	n1, _ := startWireNode(t, 2, nil)
	nodes := []*node{n0, n1}
	co, fed := startCoordinator(t, nodes, testCfg())

	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(1, 2)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	if status, _ := ingestHTTP(t, fed.URL, "s", map[string]any{"points": testPoints(100)}); status != http.StatusOK {
		t.Fatal("seed ingest failed")
	}
	if err := n0.c.DeleteStream(shardStream("s", 0)); err != nil {
		t.Fatal(err)
	}
	if status, _ := ingestHTTP(t, fed.URL, "s", map[string]any{"points": testPoints(50)}); status != http.StatusOK {
		t.Fatal("ingest with a wiped replica failed")
	}
	if got := len(pooledWires(co)); got != 2 {
		t.Fatalf("%d pooled wire conns, want one per node", got)
	}
	// The wiped node answered one HTTP push, the 404 that drove the
	// backfill; every batch went over the wire.
	if got := n0.ingests.Load(); got != 1 {
		t.Fatalf("wiped node got %d HTTP ingest requests, want 1 (the 404)", got)
	}
	if got := n1.ingests.Load(); got != 0 {
		t.Fatalf("intact node got %d HTTP ingest requests, want 0", got)
	}
	for i, want := range []uint64{50, 150} {
		st, err := nodes[i].c.Stats(shardStream("s", 0))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if st.Processed != want {
			t.Fatalf("node %d processed %d, want %d", i, st.Processed, want)
		}
	}
}

// TestWireReplicaBackpressure: a replica that NACKs every frame makes the
// coordinator answer 429 (a NACK on its own wire listener) with the
// node's hint, and the batch is not resent over HTTP.
func TestWireReplicaBackpressure(t *testing.T) {
	n, _ := startWireNode(t, 1, nackSink{})
	co, fed := startCoordinator(t, []*node{n}, testCfg())
	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(1, 1)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	status, retry := ingestHTTP(t, fed.URL, "s", map[string]any{"points": testPoints(10)})
	if status != http.StatusTooManyRequests || retry != "1" {
		t.Fatalf("ingest: status %d Retry-After %q, want 429 and 1", status, retry)
	}
	f := &wire.Frame{Name: []byte("s"), Dim: 1, Count: 2, Values: []float64{1, 2}}
	if reply := co.IngestFrame(f); reply.Status != wire.StatusBackpressure || reply.RetryMS != 20 {
		t.Fatalf("IngestFrame reply %+v, want a NACK with the node's 20ms hint", reply)
	}
	if got := n.ingests.Load(); got != 0 {
		t.Fatalf("the node's HTTP ingest route got %d requests, want 0", got)
	}
	if got := len(pooledWires(co)); got != 1 {
		t.Fatalf("%d pooled wire conns after backpressure, want the one kept", got)
	}
}

// TestWireReplicaResetNoHTTPResend: a wire push whose connection is reset
// mid-frame may have been applied, so the coordinator does not resend the
// batch over HTTP; it drops the conn, and the next push dials afresh.
func TestWireReplicaResetNoHTTPResend(t *testing.T) {
	n, px := startWireNode(t, 1, nil)
	co, fed := startCoordinator(t, []*node{n}, testCfg())
	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(1, 1)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	push := func() int {
		status, _ := ingestHTTP(t, fed.URL, "s", map[string]any{"points": testPoints(10)})
		return status
	}
	if status := push(); status != http.StatusOK {
		t.Fatalf("first push: status %d", status)
	}
	first := pooledWires(co)[n.ts.URL]
	if first == nil {
		t.Fatal("the first push dialed no wire conn")
	}

	px.SetMode(faulty.Reset)
	if status := push(); status != http.StatusServiceUnavailable {
		t.Fatalf("push through a resetting proxy: status %d, want 503", status)
	}
	if got := n.ingests.Load(); got != 0 {
		t.Fatalf("the node's HTTP ingest route got %d requests, want 0", got)
	}
	if got := len(pooledWires(co)); got != 0 {
		t.Fatalf("%d pooled wire conns after the reset, want the failed one dropped", got)
	}

	px.SetMode(faulty.Pass)
	if status := push(); status != http.StatusOK {
		t.Fatalf("push after the proxy healed: status %d", status)
	}
	if wc := pooledWires(co)[n.ts.URL]; wc == nil || wc == first {
		t.Fatal("the push after the reset did not dial a new wire conn")
	}
	st, err := n.c.Stats(shardStream("s", 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Processed != 20 {
		t.Fatalf("node processed %d, want 20 (the reset frame never arrived)", st.Processed)
	}
}

// TestWireReplicaConcurrentConnLoss: concurrent pushes share a node's
// pooled wire conn while its connections are cut. A push that sees the
// conn break drops it while others still hold it; theirs then fails
// before sending and goes over HTTP. Every push answers 200 or 503, and
// no acknowledged point is lost.
func TestWireReplicaConcurrentConnLoss(t *testing.T) {
	n, px := startWireNode(t, 1, nil)
	_, fed := startCoordinator(t, []*node{n}, testCfg())
	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(1, 1)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	raw, err := json.Marshal(map[string]any{"points": testPoints(10)})
	if err != nil {
		t.Fatal(err)
	}
	const workers, pushes = 8, 10
	var acked atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < pushes; j++ {
				resp, err := http.Post(fed.URL+"/streams/s/points", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					acked.Add(10)
				case http.StatusServiceUnavailable:
				default:
					t.Errorf("push: status %d, want 200 or 503", resp.StatusCode)
				}
				if j == pushes/2 {
					px.KillConns()
				}
			}
		}()
	}
	wg.Wait()
	st, err := n.c.Stats(shardStream("s", 0))
	if err != nil {
		t.Fatal(err)
	}
	if int64(st.Processed) < acked.Load() {
		t.Fatalf("node processed %d points, fewer than the %d acknowledged", st.Processed, acked.Load())
	}
}
