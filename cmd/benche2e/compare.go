package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchDecl is the part of BENCHMARK.json -compare needs.
type benchDecl struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRuns collects the metric lines of a file holding the standard
// output of one or more runs, by workload and metric, in run order.
// Summary lines and anything else that is not a metric line are skipped.
func readRuns(path string) (map[[2]string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[[2]string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r row
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Metric == "" {
			continue
		}
		k := [2]string{r.Workload, r.Metric}
		out[k] = append(out[k], r.Value)
	}
	return out, sc.Err()
}

// verdict compares the runs of a change (b) with the runs of its parent
// (a) for one metric:
//
//   - better: b wins at least 9 in 10 index-paired runs and the medians
//     differ, in b's favour, by more than a's interquartile range;
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: neither, and the run-to-run spread (interquartile range
//     over median, the larger of the two sides) exceeds the bound;
//   - same: otherwise.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	q1a, meda, q3a := quartiles(a)
	q1b, medb, q3b := quartiles(b)
	better := func(x, y float64) bool { // is y better than x?
		if higherBetter {
			return y > x
		}
		return y < x
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(a[i], b[i]) {
			wins++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && better(meda, medb) && abs(medb-meda) > q3a-q1a {
		return "better"
	}
	worse := (medb - meda) / meda
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	if max((q3a-q1a)/meda, (q3b-q1b)/medb) > bound {
		return "unresolved"
	}
	return "same"
}

// runCompare prints, for every end-to-end metric and workload present in
// both files, both sides' medians and quartiles and the verdict. It fails
// when any pair is worse or unresolved.
func runCompare(w io.Writer, benchPath, aPath, bPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var decl benchDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("parsing %s: %w", benchPath, err)
	}
	a, err := readRuns(aPath)
	if err != nil {
		return err
	}
	b, err := readRuns(bPath)
	if err != nil {
		return err
	}
	var keys [][2]string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Fprintf(w, "%-12s %-20s %-8s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "unit", "median A", "quartiles A", "median B", "quartiles B", "bound", "verdict")
	bad := 0
	for _, k := range keys {
		for _, m := range decl.EndToEnd {
			if m.Name != k[1] {
				continue
			}
			q1a, meda, q3a := quartiles(a[k])
			q1b, medb, q3b := quartiles(b[k])
			v := verdict(a[k], b[k], m.Bound, m.Better == "higher")
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-20s %-8s %12.4g %25s %12.4g %25s %8.3f  %s\n", k[0], k[1], m.Unit,
				meda, fmt.Sprintf("[%.4g, %.4g]", q1a, q3a), medb, fmt.Sprintf("[%.4g, %.4g]", q1b, q3b),
				m.Bound, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs worse or unresolved", bad)
	}
	return nil
}
