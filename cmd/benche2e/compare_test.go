package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"identical", parent, false, "same"},
		{"within bound", shift(1.05), false, "same"},
		{"slower beyond bound", shift(1.2), false, "worse"},
		{"faster on every pair", shift(0.8), false, "better"},
		{"throughput drop", shift(0.8), true, "worse"},
		{"throughput gain", shift(1.2), true, "better"},
		{"spread wider than bound", noisy, false, "unresolved"},
	} {
		if got := verdict(parent, c.b, 0.1, c.higher); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRunCompareReadsMetricLines(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	decl := `{"end_to_end":[{"name":"latency_p50_us","unit":"us","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(bench, []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, vals ...float64) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, v := range vals {
			enc.Encode(row{Workload: "query-mixed", Metric: "latency_p50_us", Value: v, Unit: "us", N: 10})
			enc.Encode(summary{Correct: true, Attempted: 1})
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.jsonl", 100, 101, 99, 100, 102)
	b := write("b.jsonl", 150, 151, 149, 150, 152)
	var out bytes.Buffer
	if err := runCompare(&out, bench, a, a); err != nil {
		t.Fatalf("self-compare: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "same") {
		t.Errorf("self-compare output lacks a verdict:\n%s", out.String())
	}
	out.Reset()
	if err := runCompare(&out, bench, a, b); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("regression not reported (err %v):\n%s", err, out.String())
	}
}
