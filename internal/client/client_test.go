package client

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"biasedres/internal/server"
	"biasedres/internal/xrand"
)

func newPair(t *testing.T) *Client {
	t.Helper()
	ts := httptest.NewServer(server.New(1))
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New("://bad"); err == nil {
		t.Error("bad URL accepted")
	}
	if _, err := New("no-scheme"); err == nil {
		t.Error("scheme-less URL accepted")
	}
}

func TestEndToEnd(t *testing.T) {
	c := newPair(t)
	if err := c.CreateStream("s", StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: 200}); err != nil {
		t.Fatal(err)
	}
	// Duplicate create surfaces as a typed APIError.
	err := c.CreateStream("s", StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: 200})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 409 {
		t.Fatalf("duplicate create error = %v", err)
	}

	names, err := c.ListStreams()
	if err != nil || len(names) != 1 || names[0] != "s" {
		t.Fatalf("list = %v, %v", names, err)
	}

	rng := xrand.New(2)
	batch := make([]Point, 3000)
	for i := range batch {
		label := 0
		if i%4 == 0 {
			label = 1
		}
		batch[i] = Point{Values: []float64{rng.Float64()}, Label: &label}
	}
	processed, err := c.Push("s", batch)
	if err != nil || processed != 3000 {
		t.Fatalf("push: processed=%d err=%v", processed, err)
	}

	st, err := c.Stats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Processed != 3000 || st.Capacity != 200 || st.Dim != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Fill < 0.9 {
		t.Fatalf("variable reservoir fill = %v", st.Fill)
	}

	cnt, variance, err := c.Count("s", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cnt-1000) > 500 || variance < 0 {
		t.Fatalf("count = %v ± %v", cnt, variance)
	}

	avg, err := c.Average("s", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(avg) != 1 || avg[0] < 0.3 || avg[0] > 0.7 {
		t.Fatalf("average = %v", avg)
	}

	dist, err := c.ClassDistribution("s", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist[1]-0.25) > 0.12 {
		t.Fatalf("class 1 fraction = %v", dist[1])
	}

	groups, err := c.GroupAverage("s", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 1 {
		t.Fatalf("group averages = %v", groups)
	}

	med, err := c.Quantile("s", 1000, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if med < 0.25 || med > 0.75 {
		t.Fatalf("median = %v", med)
	}

	// Checkpoint round trip.
	blob, err := c.TransferContext(context.Background(), "s")
	if err != nil || len(blob) == 0 {
		t.Fatalf("transfer: %d bytes, %v", len(blob), err)
	}
	if _, err := c.Push("s", batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore("s", blob); err != nil {
		t.Fatal(err)
	}
	st, err = c.Stats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Processed != 3000 {
		t.Fatalf("restored processed = %d, want 3000", st.Processed)
	}

	if err := c.DeleteStream("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats("s"); err == nil {
		t.Fatal("stats of deleted stream succeeded")
	}
}

func TestMetrics(t *testing.T) {
	c := newPair(t)
	if err := c.CreateStream("s", StreamConfig{Policy: "variable", Lambda: 1e-2, Capacity: 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("s", []Point{{Values: []float64{1}}, {Values: []float64{2}}}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE biasedres_http_requests_total counter",
		"# TYPE biasedres_http_request_seconds histogram",
		`biasedres_stream_processed_total{stream="s"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestErrorsSurfaceMessages(t *testing.T) {
	c := newPair(t)
	err := c.Restore("ghost", []byte("x"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type = %T (%v)", err, err)
	}
	if apiErr.StatusCode != 404 || apiErr.Message == "" {
		t.Fatalf("apiErr = %+v", apiErr)
	}
	if apiErr.Error() == "" {
		t.Fatal("empty Error()")
	}
}

func TestTimeDecayOverClient(t *testing.T) {
	c := newPair(t)
	if err := c.CreateStream("td", StreamConfig{Policy: "timedecay", Lambda: 0.01, Capacity: 100}); err != nil {
		t.Fatal(err)
	}
	ts1, ts2 := 1.5, 2.5
	if _, err := c.Push("td", []Point{
		{Values: []float64{1}, TS: &ts1},
		{Values: []float64{2}, TS: &ts2},
	}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats("td")
	if err != nil {
		t.Fatal(err)
	}
	if st.Processed != 2 {
		t.Fatalf("processed = %d", st.Processed)
	}
}
