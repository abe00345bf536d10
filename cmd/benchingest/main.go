// Command benchingest runs the repository's benchmark suites and writes
// the results to a JSON report — the reproducible harness behind the
// tables in README.md.
//
// It shells out to the repository's own toolchain, e.g. for the default
// ingest suite:
//
//	go test -run ^$ -bench BenchmarkIngest -benchmem ./internal/core ./internal/server
//
// parses the standard benchmark output (including custom metrics such as
// "points/s" and "p50-ns"), and emits one JSON document with a
// per-benchmark record plus suite-specific comparisons, such as the
// batch-vs-single ingest speedup per sampling policy. The query suite
// records the fused walk's ns/op per dimensionality and its p50 latency
// under concurrent ingest. Run it from the repository root:
//
//	go run ./cmd/benchingest                     # writes BENCH_ingest.json
//	go run ./cmd/benchingest -suite query        # writes BENCH_query.json
//	go run ./cmd/benchingest -suite federation   # writes BENCH_federation.json
//	go run ./cmd/benchingest -suite wire         # writes BENCH_wire.json
//	go run ./cmd/benchingest -suite tiers        # writes BENCH_tiers.json
//	go run ./cmd/benchingest -suite failover     # writes BENCH_failover.json
//	go run ./cmd/benchingest -suite models       # writes BENCH_models.json
//	go run ./cmd/benchingest -o out.json -benchtime 2s
//
// The federation suite runs the multi-node scatter-gather harness
// (in-process coordinator + 1/2/4 data nodes under concurrent ingest) and
// reports federated query p50/p99 latency against node count. The wire
// suite races the binary TCP ingest protocol against JSON-over-HTTP on
// identical loopback connections and batches, and reports the protocol
// speedup plus the decoder's steady-state allocations per frame; it also
// times the JSON ingest body's decode, the client's encode and the float
// writer that encode uses against strconv, and the one batch check,
// wire.Frame.Check, on the same batch shape. The failover suite blackholes
// a replicated data node behind a fault proxy and reports the mean time
// until the coordinator serves a whole (partial:false, exact) answer
// again. The models suite runs the model-management drift scenario over
// the Aggarwal, T-TBS and R-TBS samplers and reports each policy's
// training-set staleness and prequential accuracy side by side.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's parsed measurements.
type Result struct {
	Name         string  `json:"name"`
	Package      string  `json:"package"`
	Iterations   int64   `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
	P50Ns        float64 `json:"p50_ns,omitempty"`
	P99Ns        float64 `json:"p99_ns,omitempty"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	RecoveryMS   float64 `json:"recovery_ms,omitempty"`
	TrainAgePts  float64 `json:"train_age_pts,omitempty"`
	StalenessPts float64 `json:"staleness_pts,omitempty"`
	Accuracy     float64 `json:"accuracy,omitempty"`
	Retrains     float64 `json:"retrains,omitempty"`
}

// Speedup compares the batch and single-point ingest paths for one
// sampler policy.
type Speedup struct {
	Policy          string  `json:"policy"`
	SinglePointsSec float64 `json:"single_points_per_sec"`
	BatchPointsSec  float64 `json:"batch_points_per_sec"`
	Speedup         float64 `json:"speedup"`
}

// FedLatency is one row of the federated-query latency table: end-to-end
// coordinator p50/p99 at a given data-node count, under concurrent ingest.
type FedLatency struct {
	Nodes int     `json:"nodes"`
	P50Ns float64 `json:"p50_ns"`
	P99Ns float64 `json:"p99_ns"`
}

// TierLatency is one row of the tiered range-query latency table:
// GET /range p50/p99 at a given ladder depth (tiers=1 is the plain
// single-reservoir baseline).
type TierLatency struct {
	Tiers int     `json:"tiers"`
	P50Ns float64 `json:"p50_ns"`
	P99Ns float64 `json:"p99_ns"`
}

// FailoverRecovery summarizes the failover suite: the mean time from a
// replica being blackholed until the coordinator again serves a whole
// (partial:false, exact) answer. With replication the expected cost is
// one hedge grace, not a health-sweep interval.
type FailoverRecovery struct {
	RecoveryMS float64 `json:"recovery_ms"`
}

// WireVsHTTP compares binary-TCP against JSON-over-HTTP ingest from the
// wire suite: same server, same loopback TCP, same 256-point batches.
type WireVsHTTP struct {
	Batch             int     `json:"batch"`
	BinaryPointsSec   float64 `json:"binary_points_per_sec"`
	HTTPJSONPointsSec float64 `json:"http_json_points_per_sec"`
	Speedup           float64 `json:"speedup"`
	// DecodeAllocsPerOp is the frame decoder's steady-state allocations
	// per frame (the zero-alloc ingest criterion: must be 0).
	DecodeAllocsPerOp float64 `json:"decode_allocs_per_op"`
}

// ModelRow is one row of the models suite: how fresh and how accurate the
// continuously retrained classifier stays when its sample comes from the
// given sampler family, on an identical concept-drift scenario.
type ModelRow struct {
	Policy       string  `json:"policy"`
	PointsPerSec float64 `json:"points_per_sec"`
	TrainAgePts  float64 `json:"train_age_pts"`
	StalenessPts float64 `json:"staleness_pts"`
	Accuracy     float64 `json:"accuracy"`
	Retrains     float64 `json:"retrains"`
}

// Report is the BENCH_<suite>.json document.
type Report struct {
	GeneratedBy string            `json:"generated_by"`
	GoVersion   string            `json:"go_version"`
	GOOS        string            `json:"goos"`
	GOARCH      string            `json:"goarch"`
	CPU         string            `json:"cpu,omitempty"`
	Date        string            `json:"date"`
	BenchTime   string            `json:"benchtime"`
	Benchmarks  []Result          `json:"benchmarks"`
	Speedups    []Speedup         `json:"batch_vs_single,omitempty"`
	FedLatency  []FedLatency      `json:"federated_query_latency,omitempty"`
	Wire        *WireVsHTTP       `json:"wire_vs_http,omitempty"`
	TierLatency []TierLatency     `json:"tiered_range_latency,omitempty"`
	Failover    *FailoverRecovery `json:"failover_recovery,omitempty"`
	Models      []ModelRow        `json:"model_staleness,omitempty"`
}

func main() {
	var (
		suite     = flag.String("suite", "ingest", `benchmark suite: "ingest", "query", "federation", "wire", "tiers", "failover" or "models"`)
		out       = flag.String("o", "", "output file (default BENCH_<suite>.json)")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime value")
		count     = flag.Int("count", 1, "go test -count value")
	)
	flag.Parse()

	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}
	if err := run(*suite, *out, *benchtime, *count); err != nil {
		fmt.Fprintln(os.Stderr, "benchingest:", err)
		os.Exit(1)
	}
}

func run(suite, out, benchtime string, count int) error {
	var pattern string
	var pkgs []string
	switch suite {
	case "ingest":
		pattern, pkgs = "BenchmarkIngest", []string{"./internal/core", "./internal/server"}
	case "query":
		pattern, pkgs = "^BenchmarkQuery", []string{"./internal/query"}
	case "federation":
		pattern, pkgs = "^BenchmarkFed", []string{"./internal/federation"}
	case "wire":
		pattern, pkgs = "^Benchmark(Wire|IngestDecode$|PushEncode$|AppendFloat$|Check$)", []string{"./internal/server", "./internal/wire", "./internal/client"}
	case "tiers":
		pattern, pkgs = "^BenchmarkTiers", []string{"./internal/server"}
	case "failover":
		pattern, pkgs = "^BenchmarkFailover", []string{"./internal/federation"}
	case "models":
		pattern, pkgs = "^BenchmarkModels", []string{"./internal/models"}
	default:
		return fmt.Errorf("unknown suite %q (want ingest, query, federation, wire, tiers, failover or models)", suite)
	}
	args := append([]string{"test", "-run", "^$", "-bench", pattern, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count)}, pkgs...)
	fmt.Fprintln(os.Stderr, "running: go", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test: %w", err)
	}
	os.Stderr.Write(buf.Bytes())

	report := Report{
		GeneratedBy: "cmd/benchingest -suite " + suite,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Date:        time.Now().UTC().Format(time.RFC3339),
		BenchTime:   benchtime,
	}
	var err error
	report.Benchmarks, report.CPU, err = parse(&buf)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in go test output")
	}
	switch suite {
	case "ingest":
		report.Speedups = speedups(report.Benchmarks)
	case "federation":
		report.FedLatency = fedLatency(report.Benchmarks)
	case "wire":
		report.Wire = wireVsHTTP(report.Benchmarks)
	case "tiers":
		report.TierLatency = tierLatency(report.Benchmarks)
	case "failover":
		report.Failover = failoverRecovery(report.Benchmarks)
	case "models":
		report.Models = modelRows(report.Benchmarks)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", out, len(report.Benchmarks))
	for _, s := range report.Speedups {
		fmt.Fprintf(os.Stderr, "  %-12s batch/single = %.2fx\n", s.Policy, s.Speedup)
	}
	for _, f := range report.FedLatency {
		fmt.Fprintf(os.Stderr, "  federated query, %d node(s): p50 %.0fns, p99 %.0fns\n",
			f.Nodes, f.P50Ns, f.P99Ns)
	}
	if wv := report.Wire; wv != nil {
		fmt.Fprintf(os.Stderr, "  wire batch=%d: binary %.3g points/s vs JSON-HTTP %.3g points/s = %.2fx (decode %.0f allocs/op)\n",
			wv.Batch, wv.BinaryPointsSec, wv.HTTPJSONPointsSec, wv.Speedup, wv.DecodeAllocsPerOp)
	}
	for _, tl := range report.TierLatency {
		fmt.Fprintf(os.Stderr, "  range query, %d tier(s): p50 %.0fns, p99 %.0fns\n",
			tl.Tiers, tl.P50Ns, tl.P99Ns)
	}
	if fo := report.Failover; fo != nil {
		fmt.Fprintf(os.Stderr, "  failover: whole answers resume %.1fms after a replica is blackholed\n",
			fo.RecoveryMS)
	}
	for _, mr := range report.Models {
		fmt.Fprintf(os.Stderr, "  model on %-9s train age %.0f pts, staleness %.0f pts, accuracy %.3f, retrains %.1f\n",
			mr.Policy, mr.TrainAgePts, mr.StalenessPts, mr.Accuracy, mr.Retrains)
	}
	return nil
}

// benchLine matches `BenchmarkX/sub-8  1234  56.7 ns/op ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// parse extracts benchmark records (and the cpu: line) from go test
// -bench output. Repeated runs of one benchmark (-count > 1) are averaged.
func parse(r *bytes.Buffer) ([]Result, string, error) {
	type acc struct {
		Result
		runs int
	}
	var (
		order []string
		byKey = map[string]*acc{}
		pkg   string
		cpu   string
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if strings.HasPrefix(line, "cpu:") {
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := trimGOMAXPROCS(m[1])
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, "", fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		key := pkg + " " + name
		a, ok := byKey[key]
		if !ok {
			a = &acc{Result: Result{Name: name, Package: pkg}}
			byKey[key] = a
			order = append(order, key)
		}
		a.runs++
		a.Iterations += iters
		// The tail is value/unit pairs: "15.1 ns/op  6.6e7 points/s ...".
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, "", fmt.Errorf("bad metric value in %q: %w", line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				a.NsPerOp += val
			case "points/s":
				a.PointsPerSec += val
			case "p50-ns":
				a.P50Ns += val
			case "p99-ns":
				a.P99Ns += val
			case "B/op":
				a.BytesPerOp += val
			case "allocs/op":
				a.AllocsPerOp += val
			case "recovery-ms":
				a.RecoveryMS += val
			case "train-age-pts":
				a.TrainAgePts += val
			case "staleness-pts":
				a.StalenessPts += val
			case "accuracy":
				a.Accuracy += val
			case "retrains":
				a.Retrains += val
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	results := make([]Result, 0, len(order))
	for _, key := range order {
		a := byKey[key]
		n := float64(a.runs)
		a.NsPerOp /= n
		a.PointsPerSec /= n
		a.P50Ns /= n
		a.P99Ns /= n
		a.BytesPerOp /= n
		a.AllocsPerOp /= n
		a.RecoveryMS /= n
		a.TrainAgePts /= n
		a.StalenessPts /= n
		a.Accuracy /= n
		a.Retrains /= n
		results = append(results, a.Result)
	}
	return results, cpu, nil
}

// trimGOMAXPROCS drops the trailing -N procs suffix Go appends to
// benchmark names ("BenchmarkX/sub-8" → "BenchmarkX/sub").
func trimGOMAXPROCS(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// speedups pairs BenchmarkIngestBatch/<policy>/... against
// BenchmarkIngestSingle/<policy> on the points/s metric.
func speedups(results []Result) []Speedup {
	single := map[string]float64{}
	batch := map[string]float64{}
	for _, r := range results {
		parts := strings.Split(r.Name, "/")
		if len(parts) < 2 || r.PointsPerSec == 0 {
			continue
		}
		switch parts[0] {
		case "BenchmarkIngestSingle":
			single[parts[1]] = r.PointsPerSec
		case "BenchmarkIngestBatch":
			batch[parts[1]] = r.PointsPerSec
		}
	}
	var out []Speedup
	for policy, s := range single {
		b, ok := batch[policy]
		if !ok || s == 0 {
			continue
		}
		out = append(out, Speedup{
			Policy:          policy,
			SinglePointsSec: s,
			BatchPointsSec:  b,
			Speedup:         b / s,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Policy < out[j].Policy })
	return out
}

// tierLatency extracts the BenchmarkTiersRange/tiers=N p50/p99 rows.
func tierLatency(results []Result) []TierLatency {
	var out []TierLatency
	for _, r := range results {
		var tiers int
		if _, err := fmt.Sscanf(r.Name, "BenchmarkTiersRange/tiers=%d", &tiers); err != nil {
			continue
		}
		out = append(out, TierLatency{Tiers: tiers, P50Ns: r.P50Ns, P99Ns: r.P99Ns})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tiers < out[j].Tiers })
	return out
}

// fedLatency extracts the BenchmarkFedQuery/nodes=N p50/p99 rows.
func fedLatency(results []Result) []FedLatency {
	var out []FedLatency
	for _, r := range results {
		var nodes int
		if _, err := fmt.Sscanf(r.Name, "BenchmarkFedQuery/nodes=%d", &nodes); err != nil {
			continue
		}
		out = append(out, FedLatency{Nodes: nodes, P50Ns: r.P50Ns, P99Ns: r.P99Ns})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Nodes < out[j].Nodes })
	return out
}

// failoverRecovery extracts BenchmarkFailover's recovery-ms metric.
func failoverRecovery(results []Result) *FailoverRecovery {
	for _, r := range results {
		if r.Name == "BenchmarkFailover" && r.RecoveryMS > 0 {
			return &FailoverRecovery{RecoveryMS: r.RecoveryMS}
		}
	}
	return nil
}

// modelRows extracts the BenchmarkModels/policy=<name> freshness rows.
func modelRows(results []Result) []ModelRow {
	var out []ModelRow
	for _, r := range results {
		policy, ok := strings.CutPrefix(r.Name, "BenchmarkModels/policy=")
		if !ok {
			continue
		}
		out = append(out, ModelRow{
			Policy:       policy,
			PointsPerSec: r.PointsPerSec,
			TrainAgePts:  r.TrainAgePts,
			StalenessPts: r.StalenessPts,
			Accuracy:     r.Accuracy,
			Retrains:     r.Retrains,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Policy < out[j].Policy })
	return out
}

// wireVsHTTP pairs BenchmarkWireTCP against BenchmarkWireHTTPJSON on the
// points/s metric, carrying the decode benchmark's allocation count along
// as the zero-alloc evidence.
func wireVsHTTP(results []Result) *WireVsHTTP {
	wv := &WireVsHTTP{Batch: 256}
	for _, r := range results {
		switch r.Name {
		case "BenchmarkWireTCP":
			wv.BinaryPointsSec = r.PointsPerSec
		case "BenchmarkWireHTTPJSON":
			wv.HTTPJSONPointsSec = r.PointsPerSec
		case "BenchmarkWireDecodeFrame":
			wv.DecodeAllocsPerOp = r.AllocsPerOp
		}
	}
	if wv.BinaryPointsSec == 0 || wv.HTTPJSONPointsSec == 0 {
		return nil
	}
	wv.Speedup = wv.BinaryPointsSec / wv.HTTPJSONPointsSec
	return wv
}
