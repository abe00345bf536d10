package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// BENCHMARK.json at the repository root declares the metrics this command
// prints; the two must name the same metrics with the same units and
// directions, and every workload.
func TestBenchmarkDeclarationMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, defined %q", i, w.Name, workloads[i].name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end %d: declared %+v, defined %+v", i, m, d)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: declared %+v, defined %+v", i, m, d)
		}
	}
}

// scaled returns the workload with its rates and preload multiplied by f,
// never preloading less than the read checks need.
func (w workload) scaled(f float64) workload {
	w.ingestRate *= f
	w.readRate *= f
	w.preload = max(int(float64(w.preload)*f), 8*batchSize)
	return w
}

// Every workload runs end to end at tiny rates, untraced and traced, with
// no failed operation or check, and reports every declared metric.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := passConfig{w: w.scaled(0.05), seed: 1, warmup: 200 * time.Millisecond,
				window: 400 * time.Millisecond, setups: 1, dataDir: t.TempDir()}
			plain, err := runPass(cfg)
			if err != nil {
				t.Fatal(err)
			}
			normalize(plain.Metrics, 1, 1, w.ingestRate == 0)
			cfg.traced = true
			traced, err := runPass(cfg)
			if err != nil {
				t.Fatal(err)
			}
			normalize(traced.Metrics, 1, 1, w.ingestRate == 0)
			out := merge(plain, traced)
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("failed %d of %d operations", out.failed, out.attempted)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if _, ok := out.metrics[d.name]; !ok {
					t.Errorf("metric %s not reported", d.name)
				}
			}
			if n := len(out.rows(w.name)); n != len(endToEnd)+3+len(perLayer) {
				t.Errorf("%d metric lines, want %d", n, len(endToEnd)+3+len(perLayer))
			}
		})
	}
}
