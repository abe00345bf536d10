// The sampling library as a network service.
//
// This example runs the reservoird HTTP service in-process on a loopback
// port, then drives it through the typed Go client exactly as a remote
// collector would: create a stream, push batches of evolving points, ask
// dashboard queries, take a checkpoint, keep pushing, and roll back.
//
//	go run ./examples/httpservice
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/server"
	"biasedres/internal/stream"
)

func main() {
	// Serve on an ephemeral loopback port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(1), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("reservoird serving at %s\n\n", base)

	c, err := client.New(base)
	if err != nil {
		log.Fatal(err)
	}
	if err := c.CreateStream("sensor", client.StreamConfig{
		Policy: "variable", Lambda: 1e-3, Capacity: 500,
	}); err != nil {
		log.Fatal(err)
	}

	// Push an evolving 4-cluster stream in batches of 1000.
	gen, err := stream.NewClusterGenerator(stream.ClusterConfig{
		Dim: 3, K: 4, Radius: 0.2, Drift: 0.05, EpochLen: 500, Total: 20000, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	var batch []client.Point
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if _, err := c.Push("sensor", batch); err != nil {
			log.Fatal(err)
		}
		batch = batch[:0]
	}
	for {
		p, ok := gen.Next()
		if !ok {
			break
		}
		label := p.Label
		batch = append(batch, client.Point{Values: p.Values, Label: &label})
		if len(batch) == 1000 {
			flush()
		}
	}
	flush()

	st, err := c.Stats("sensor")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server state: %d points processed, reservoir %d/%d (%.0f%% full)\n",
		st.Processed, st.Size, st.Capacity, 100*st.Fill)

	cnt, sigma2, err := c.Count("sensor", 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("count over last 2000:  %.0f (variance %.0f)\n", cnt, sigma2)

	avg, err := c.Average("sensor", 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("average over last 2000: %v\n", fmtVec(avg))

	dist, err := c.ClassDistribution("sensor", 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("class mix over last 2000: %d classes, each ~0.25\n", len(dist))

	med, err := c.Quantile("sensor", 2000, 0, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("median of dim 0:        %.3f\n\n", med)

	// Checkpoint, mutate, roll back.
	blob, err := c.TransferContext(context.Background(), "sensor")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint taken: %d bytes\n", len(blob))
	extra := make([]client.Point, 500)
	for i := range extra {
		extra[i] = client.Point{Values: []float64{9, 9, 9}}
	}
	if _, err := c.Push("sensor", extra); err != nil {
		log.Fatal(err)
	}
	if err := c.Restore("sensor", blob); err != nil {
		log.Fatal(err)
	}
	st, err = c.Stats("sensor")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after push of 500 junk points and restore: processed = %d (rolled back)\n", st.Processed)

	// The service exposes its runtime state in Prometheus text format.
	expo, err := c.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\na few lines of GET /metrics:")
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "biasedres_stream_") && strings.Contains(line, `{stream="sensor"}`) {
			fmt.Println("  " + line)
		}
	}
}

func fmtVec(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}
