package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
)

func clusterCSV(t *testing.T, n int) string {
	t.Helper()
	cfg := stream.DefaultClusterConfig()
	cfg.Total = uint64(n)
	g, err := stream.NewClusterGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := stream.WriteCSV(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stream.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBasic(t *testing.T) {
	path := clusterCSV(t, 5000)
	var out, errw bytes.Buffer
	err := run([]string{"-in", path, "-lambda", "1e-3", "-capacity", "200"}, nil, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	if !strings.Contains(errw.String(), "processed: 5000 points") {
		t.Fatalf("report missing:\n%s", errw.String())
	}
	// Within a capacity, biased is Algorithm 3.1: after t = 5000 arrivals
	// at λ = 1e-3 about n·e^{-λt} ≈ 1.3 of its 200 slots are still empty
	// (paper Section 3).
	if !strings.Contains(errw.String(), "reservoir: 200 / 200") &&
		!strings.Contains(errw.String(), "reservoir: 199 / 200") {
		t.Fatalf("variable reservoir not essentially full:\n%s", errw.String())
	}
}

func TestRunStdin(t *testing.T) {
	var csv bytes.Buffer
	for i := 1; i <= 100; i++ {
		fmt.Fprintf(&csv, "%d,0,1,%g\n", i, float64(i))
	}
	var out, errw bytes.Buffer
	if err := run([]string{"-lambda", "0.1"}, &csv, &out, &errw); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(errw.String(), "processed: 100 points") {
		t.Fatalf("report:\n%s", errw.String())
	}
}

func TestRunQueries(t *testing.T) {
	path := clusterCSV(t, 8000)
	for _, q := range []string{"avg", "classdist", "median"} {
		var out, errw bytes.Buffer
		err := run([]string{"-in", path, "-lambda", "1e-3", "-capacity", "300", "-query", q, "-h", "2000"}, nil, &out, &errw)
		if err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
		if out.Len() == 0 {
			t.Fatalf("query %s produced no output", q)
		}
	}
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-query", "nope"}, nil, &out, &errw); err == nil {
		t.Fatal("unknown query accepted")
	}
}

func TestRunPolicies(t *testing.T) {
	path := clusterCSV(t, 3000)
	for _, p := range core.Policies() {
		var out, errw bytes.Buffer
		if err := run([]string{"-in", path, "-policy", p, "-capacity", "100", "-lambda", "1e-3"}, nil, &out, &errw); err != nil {
			t.Fatalf("policy %s: %v", p, err)
		}
	}
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-policy", "bogus"}, nil, &out, &errw); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestRunDump(t *testing.T) {
	path := clusterCSV(t, 2000)
	dump := filepath.Join(t.TempDir(), "sample.csv")
	var out, errw bytes.Buffer
	if err := run([]string{"-in", path, "-lambda", "1e-2", "-capacity", "50", "-dump", dump}, nil, &out, &errw); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := stream.NewCSVReader(f)
	pts := stream.Collect(r, 0)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(pts) == 0 || len(pts) > 50 {
		t.Fatalf("dumped %d points", len(pts))
	}
	// Dump to stdout.
	out.Reset()
	if err := run([]string{"-in", path, "-lambda", "1e-2", "-capacity", "50", "-dump", "-"}, nil, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("stdout dump empty")
	}
}

func TestRunKDDFormat(t *testing.T) {
	// Two hundred synthetic KDD rows.
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		cols := make([]string, 0, 42)
		for c := 0; c < 41; c++ {
			switch c {
			case 1:
				cols = append(cols, "tcp")
			case 2:
				cols = append(cols, "http")
			case 3:
				cols = append(cols, "SF")
			default:
				cols = append(cols, fmt.Sprintf("%d", i%7))
			}
		}
		label := "normal"
		if i%5 == 0 {
			label = "smurf"
		}
		fmt.Fprintln(&buf, strings.Join(append(cols, label+"."), ","))
	}
	path := filepath.Join(t.TempDir(), "kdd.data")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	err := run([]string{"-in", path, "-format", "kdd", "-lambda", "1e-2", "-capacity", "50", "-query", "classdist", "-h", "200"}, nil, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "class distribution") {
		t.Fatalf("query output:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-in", "/nonexistent/file.csv"}, nil, &out, &errw); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"-format", "bogus"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("bogus format accepted")
	}
	if err := run([]string{}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("empty input accepted")
	}
	if err := run([]string{"-badflag"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("bad flag accepted")
	}
	// Malformed CSV propagates the parse error.
	if err := run([]string{}, strings.NewReader("not,a,valid\n"), &out, &errw); err == nil {
		t.Fatal("malformed CSV accepted")
	}
}
