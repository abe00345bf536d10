// Command benche2e is the repository's end-to-end benchmark: it composes
// reservoird in-process (real loopback TCP, durable data directories, the
// daemon's defaults), drives it from generator goroutines through
// internal/client, checks every answer, and reports end-to-end metrics and
// — in a traced pass — per-layer metrics from spans recorded around each
// layer's public interface. See README.md for the workloads and metrics.
//
// Usage:
//
//	benche2e [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-spans file]
//	benche2e -compare [-bench BENCHMARK.json] a.jsonl b.jsonl
//
// Without -workload every workload runs in turn. Each measured pass runs
// in a fresh child process (the command re-executes itself), so memory,
// GC state and disk state never leak from one pass into the next. With
// -trace 1 a workload runs twice, untraced and then traced.
//
// Standard output carries one JSON line per metric,
// {"workload","metric","value","unit","n"}, and, last, one summary line
// {"correct","attempted","failed","metrics"} holding the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1). Among the lines,
// "valid" is 0 when an open-loop generator ran late (README.md,
// Validity); it does not affect "correct". "host.speed" is the factor the
// end-to-end metrics were normalized by (hostspeed.go). A table goes to
// standard error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// A pass times setups set-ups and reports their median as setup_s. Its
// window opens warmup after the measured daemons started: with the
// daemons' 10 s checkpoint interval, a window of n×10 s then holds exactly
// n periodic checkpoints of every stream.
const (
	setups = 7
	warmup = 5 * time.Second
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (empty = all)")
		seed     = flag.Uint64("seed", 1, "seed of the generated stream and read schedule")
		seconds  = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "1 = also run a traced pass and report per-layer metrics")
		spans    = flag.String("spans", "", "with -trace 1, write the traced spans to this file (JSON lines)")
		dataDir  = flag.String("data-dir", ".bench_build/benche2e-data", "parent directory for the daemons' data directories")
		compare  = flag.Bool("compare", false, "compare two files of metric lines: -compare a.jsonl b.jsonl")
		bench    = flag.String("bench", "BENCHMARK.json", "benchmark declaration holding the bounds -compare applies")
		child    = flag.Bool("child", false, "run one pass and print its raw result (used by the parent process)")
		tracedCh = flag.Bool("traced", false, "with -child, record spans")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two files"))
		}
		if err := runCompare(os.Stdout, *bench, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("-seconds must be ≥ 1 and -trace 0 or 1"))
	}
	dir, err := filepath.Abs(*dataDir)
	if err != nil {
		fatal(err)
	}
	var selected []workload
	if *name == "" {
		selected = workloads
	} else {
		w, err := lookupWorkload(*name)
		if err != nil {
			fatal(err)
		}
		selected = []workload{w}
	}
	cfg := passConfig{seed: *seed, warmup: warmup, window: time.Duration(*seconds) * time.Second,
		setups: setups, traced: *tracedCh, dataDir: dir, spans: *spans}

	if *child {
		cfg.w = selected[0]
		res, err := runPass(cfg)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	sum := summary{Metrics: map[string]metricOut{}}
	var rows []row
	for _, w := range selected {
		cfg.w = w
		out, err := runWorkload(cfg, *trace == 1)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		sum.Attempted += out.attempted
		sum.Failed += out.failed
		reported := endToEnd
		if *trace == 1 {
			reported = perLayer
		}
		for _, d := range reported {
			key := d.name
			if len(selected) > 1 {
				key = w.name + "/" + d.name
			}
			sum.Metrics[key] = metricOut{Value: out.metrics[d.name].V, Unit: d.unit}
		}
		rows = append(rows, out.rows(w.name)...)
	}
	sum.Correct = sum.Failed == 0
	enc := json.NewEncoder(os.Stdout)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			fatal(err)
		}
	}
	printTable(rows)
	if err := enc.Encode(sum); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benche2e:", err)
	os.Exit(1)
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one metric line of standard output.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
}

// workloadOut is one workload's merged passes.
type workloadOut struct {
	metrics   map[string]value
	attempted int
	failed    int
	traced    bool
}

// rows lists the end-to-end metrics, then error_rate, valid and the
// untraced pass's host.speed, then — after a traced pass — the per-layer
// metrics.
func (o *workloadOut) rows(workload string) []row {
	var out []row
	add := func(d metricDef) {
		v := o.metrics[d.name]
		out = append(out, row{workload, d.name, v.V, d.unit, v.N})
	}
	for _, d := range endToEnd {
		add(d)
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	out = append(out, row{workload, "error_rate", rate, "fraction", o.attempted})
	v := o.metrics["valid"]
	out = append(out, row{workload, "valid", v.V, "bool", v.N})
	s := o.metrics["host.speed"]
	out = append(out, row{workload, "host.speed", s.V, "ratio", s.N})
	if o.traced {
		for _, d := range perLayer {
			add(d)
		}
	}
	return out
}

// runWorkload runs the untraced pass and, if traced, the traced pass,
// each in a child process, and merges them: end-to-end metrics from the
// untraced pass, span-derived per-layer metrics from the traced one (the
// rest from the untraced pass), and the traced pass's slow-down of
// latency_p50_us as trace.overhead_pct.latency_p50_us.
func runWorkload(cfg passConfig, traced bool) (*workloadOut, error) {
	plain, err := runTimedChild(cfg, false)
	if err != nil {
		return nil, err
	}
	var tr *passResult
	if traced {
		if tr, err = runTimedChild(cfg, true); err != nil {
			return nil, err
		}
	}
	return merge(plain, tr), nil
}

// runTimedChild runs one pass while sampling the host-speed probe and
// normalizes the pass's end-to-end metrics by the speed it measured.
func runTimedChild(cfg passConfig, traced bool) (*passResult, error) {
	stop := make(chan struct{})
	samples := make(chan dist, 1)
	go func() { samples <- probeUntil(stop) }()
	res, err := runChild(cfg, traced)
	close(stop)
	s := <-samples
	if err != nil {
		return nil, err
	}
	normalize(res.Metrics, hostSpeed(s), len(s), cfg.w.ingestRate == 0)
	return res, nil
}

// merge combines an untraced pass with an optional traced one.
func merge(plain, tr *passResult) *workloadOut {
	out := &workloadOut{metrics: plain.Metrics, attempted: plain.Attempted, failed: plain.Failed}
	if tr == nil {
		return out
	}
	out.traced = true
	out.attempted += tr.Attempted
	out.failed += tr.Failed
	pv, tv := plain.Metrics["valid"], tr.Metrics["valid"]
	out.metrics["valid"] = value{min(pv.V, tv.V), pv.N + tv.N}
	for _, d := range perLayer {
		if _, measured := plain.Metrics[d.name]; !measured {
			out.metrics[d.name] = tr.Metrics[d.name]
		}
	}
	base, with := plain.Metrics["latency_p50_us"], tr.Metrics["latency_p50_us"]
	pct := 0.0
	if base.V > 0 {
		pct = 100 * (with.V - base.V) / base.V
	}
	out.metrics["trace.overhead_pct.latency_p50_us"] = value{pct, with.N}
	return out
}

// runChild re-executes this binary for one pass and decodes its result
// from the last line of the child's standard output. The child's standard
// error passes through.
func runChild(cfg passConfig, traced bool) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", cfg.w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.window / time.Second)), "-data-dir", cfg.dataDir}
	if traced {
		args = append(args, "-traced")
		if cfg.spans != "" {
			args = append(args, "-spans", cfg.spans)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("pass (traced=%v): %w", traced, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res passResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("reading pass result: %w", err)
	}
	return &res, nil
}

// printTable writes the metric lines as a table on standard error.
func printTable(rows []row) {
	fmt.Fprintf(os.Stderr, "%-12s %-40s %16s %-8s %8s\n", "workload", "metric", "value", "unit", "n")
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "%-12s %-40s %16.4f %-8s %8d\n", r.Workload, r.Metric, r.Value, r.Unit, r.N)
	}
}
