package main

import (
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/federation"
	"biasedres/internal/multi"
	"biasedres/internal/server"
	"biasedres/internal/wire"
)

// TestMetricsDocumented is the docs-freshness gate for metrics: every
// family a data node or a coordinator exposes on /metrics has its row in
// docs/OPERATIONS.md. The node runs every feature that adds families at
// scrape time (durability, async ingest shards, a plain and a tiered
// stream with retention, a model that has scored a full window, a wire
// listener on the same registry, a registered multi.Manager with a
// stream), so a family the collectors emit only for such streams is
// scraped too.
func TestMetricsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}

	store, err := durable.Open(durable.NewMemFS(), "data")
	if err != nil {
		t.Fatal(err)
	}
	node := server.New(1, server.WithIngestShards(1, 4),
		server.WithRetention(0.01, time.Hour),
		server.WithDurability(store, server.DurabilityConfig{}))
	t.Cleanup(node.Close)
	wire.NewListener(node, wire.WithMetrics(node.Metrics()))
	ts := httptest.NewServer(node)
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]client.Point, 64)
	for i := range pts {
		label := i % 2
		pts[i] = client.Point{Values: []float64{float64(i % 5), float64(i % 3)}, Label: &label}
	}
	for name, tiers := range map[string]int{"plain": 0, "tiered": 2} {
		if err := c.CreateStream(name, client.StreamConfig{Policy: "variable", Lambda: 0.01, Capacity: 32, Tiers: tiers}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Push(name, pts); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateModel("tiered", client.ModelConfig{Dim: 2, ShortH: 16, LongH: 64, Window: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("tiered", pts); err != nil {
		t.Fatal(err)
	}
	// The model scores on the stream's ingest worker: wait until the batch
	// is applied.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := c.Stats("tiered")
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d points still pending", st.Pending)
		}
	}

	fleet, err := multi.NewManager(100, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.Register("fleet", 50); err != nil {
		t.Fatal(err)
	}
	node.Metrics().Register(fleet)

	co, err := federation.New([]string{ts.URL}, federation.Config{HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	wire.NewListener(co, wire.WithMetrics(co.Metrics()))

	for role, text := range map[string]string{"node": node.Metrics().Expose(), "coordinator": co.Metrics().Expose()} {
		families := 0
		for _, line := range strings.Split(text, "\n") {
			name, ok := strings.CutPrefix(line, "# TYPE ")
			if !ok {
				continue
			}
			name, _, _ = strings.Cut(name, " ")
			families++
			row := regexp.MustCompile("(?m)^\\| `" + regexp.QuoteMeta(name) + "[`{]")
			if !row.Match(doc) {
				t.Errorf("%s family %s has no row in docs/OPERATIONS.md", role, name)
			}
		}
		if families == 0 {
			t.Errorf("%s exposes no metric families", role)
		}
	}
}

// TestRoutesDocumented is the docs-freshness gate for routes: the
// `### METHOD /path` headings of docs/QUERY_API.md §1 are exactly the data
// node's routes, and the rows of §2's route table exactly the
// coordinator's. A route taken out of a mux must lose its section, and a
// new route must gain one. Both muxes register a per-route latency series
// for every route as they are built, so the served routes are read off a
// fresh /metrics.
func TestRoutesDocumented(t *testing.T) {
	raw, err := os.ReadFile("../../docs/QUERY_API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, nodeDoc, _ := strings.Cut(string(raw), "\n## 1. ")
	nodeDoc, coordDoc, _ := strings.Cut(nodeDoc, "\n## 2. ")
	coordDoc, _, _ = strings.Cut(coordDoc, "\n## 3. ")

	node := server.New(1)
	t.Cleanup(node.Close)
	ts := httptest.NewServer(node)
	t.Cleanup(ts.Close)
	co, err := federation.New([]string{ts.URL}, federation.Config{HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)

	matches := func(re, text string) map[string]bool {
		set := make(map[string]bool)
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(text, -1) {
			set[m[1]] = true
		}
		return set
	}
	const method = `(?:GET|PUT|POST|DELETE) /`
	for _, c := range []struct {
		role, where     string
		documented, mux map[string]bool
	}{
		{"node", "§1 heading",
			matches("(?m)^### ("+method+"\\S*)$", nodeDoc),
			matches(`biasedres_http_request_seconds_count\{route="([^"]+)"\}`, node.Metrics().Expose())},
		{"coordinator", "row in §2's route table",
			matches("(?m)^\\| `("+method+"[^`?]*)", coordDoc),
			matches(`biasedres_fed_http_request_seconds_count\{route="([^"]+)"\}`, co.Metrics().Expose())},
	} {
		if len(c.mux) == 0 {
			t.Fatalf("%s: no routes read off /metrics", c.role)
		}
		for route := range c.mux {
			if !c.documented[route] {
				t.Errorf("%s route %s has no %s in docs/QUERY_API.md", c.role, route, c.where)
			}
		}
		for route := range c.documented {
			if !c.mux[route] {
				t.Errorf("docs/QUERY_API.md has a %s for %s, but the %s does not serve it", c.where, route, c.role)
			}
		}
	}
}

// TestPoliciesDocumented is the docs-freshness gate for sampler families:
// every core.Policies() name is listed in QUERY_API's `policy` row of the
// create request and in OPERATIONS' `-default-policy` flag row.
func TestPoliciesDocumented(t *testing.T) {
	for _, d := range []struct{ file, row string }{
		{"../../docs/QUERY_API.md", "| `policy` |"},
		{"../../docs/OPERATIONS.md", "| `-default-policy` |"},
	} {
		doc, err := os.ReadFile(d.file)
		if err != nil {
			t.Fatal(err)
		}
		_, rest, ok := strings.Cut(string(doc), "\n"+d.row)
		if !ok {
			t.Fatalf("%s has no %s row", d.file, d.row)
		}
		row, _, _ := strings.Cut(rest, "\n")
		for _, name := range core.Policies() {
			if !strings.Contains(row, "`"+name+"`") {
				t.Errorf("%s: policy %q missing from the %s row", d.file, name, d.row)
			}
		}
	}
}
