package federation

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/server"
	"biasedres/internal/wire"
)

// BenchmarkFedQuery measures end-to-end federated query latency against
// node counts 1, 2 and 4 while every node absorbs concurrent ingest — the
// serving pattern the coordinator exists for. Each shape reports its p50
// and p99 as "p50-ns"/"p99-ns"; cmd/benchingest -suite federation turns
// one run into BENCH_federation.json.
func BenchmarkFedQuery(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", k), func(b *testing.B) {
			nodes := make([]*server.Server, k)
			listeners := make([]*httptest.Server, k)
			peers := make([]string, k)
			clients := make([]*client.Client, k)
			for i := range nodes {
				nodes[i] = server.New(uint64(100 + i))
				listeners[i] = httptest.NewServer(nodes[i])
				peers[i] = listeners[i].URL
				c, err := client.New(peers[i])
				if err != nil {
					b.Fatal(err)
				}
				clients[i] = c
				if err := c.CreateStream("s", client.StreamConfig{
					Policy: "variable", Lambda: 1e-4, Capacity: 1024,
				}); err != nil {
					b.Fatal(err)
				}
			}
			defer func() {
				for i := range nodes {
					listeners[i].Close()
					nodes[i].Close()
				}
			}()

			// Preload so queries see a full reservoir from the first
			// iteration, then keep writers pushing round-robin shards.
			const preload = 5000
			batch := func(base, n, stride, offset int) []client.Point {
				pts := make([]client.Point, 0, n)
				for i := offset; i < n; i += stride {
					label := (base + i) % 3
					pts = append(pts, client.Point{
						Values: []float64{float64((base + i) % 10), float64((base + i) % 7)},
						Label:  &label,
					})
				}
				return pts
			}
			for i, c := range clients {
				if _, err := c.Push("s", batch(0, preload, k, i)); err != nil {
					b.Fatal(err)
				}
			}

			co, err := New(peers, Config{HealthInterval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer co.Close()
			co.Sweep(context.Background())
			fed := httptest.NewServer(co)
			defer fed.Close()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i, c := range clients {
				wg.Add(1)
				go func(i int, c *client.Client) {
					defer wg.Done()
					base := preload
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := c.Push("s", batch(base, 64, 1, 0)); err != nil {
							return
						}
						base += 64
					}
				}(i, c)
			}

			url := fed.URL + "/streams/s/query?type=average&h=2000"
			lats := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				resp, err := http.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
				lats = append(lats, time.Since(start))
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			b.ReportMetric(float64(lats[len(lats)/2].Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(lats[len(lats)*99/100].Nanoseconds()), "p99-ns")
		})
	}
}

// BenchmarkFedIngestFrame measures the coordinator's wire ingest: one
// Coordinator.IngestFrame of a 256-point, dim-10 labelled frame into a
// stream of 2 shards × 2 replicas on two wire-advertising data nodes —
// the check, the split into per-shard frames and the four replica pushes
// over the wire, each applied by its node before it acknowledges.
func BenchmarkFedIngestFrame(b *testing.B) {
	nodes := startNodes(b, 2)
	for _, n := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		wl := wire.NewListener(n.srv)
		go wl.Serve(ln)
		b.Cleanup(func() { wl.Close() })
		n.srv.SetWireAddr(ln.Addr().String())
	}
	co, fed := startCoordinator(b, nodes, testCfg())
	if status, body := fedDo(b, http.MethodPut, fed.URL+"/streams/s", managedCfg(2, 2)); status != http.StatusCreated {
		b.Fatalf("create: status %d body %v", status, body)
	}
	const n, dim = 256, 10
	rng := rand.New(rand.NewPCG(7, 7))
	f := &wire.Frame{Name: []byte("s"), Dim: dim, Count: n, Values: make([]float64, n*dim), Labels: make([]int64, n)}
	for i := range f.Values {
		f.Values[i] = rng.NormFloat64() * 10
	}
	for i := range f.Labels {
		f.Labels[i] = int64(rng.IntN(8))
	}
	ingest := func() {
		if r := co.IngestFrame(f); r.Status != wire.StatusOK {
			b.Fatalf("ingest: %+v", r)
		}
	}
	ingest() // dials the replicas' wire connections
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest()
	}
}
