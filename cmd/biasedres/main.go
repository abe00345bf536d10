// Command biasedres maintains a reservoir over a point stream read from
// stdin (or a file) and reports the resulting sample, statistics, and
// optionally query estimates.
//
// Usage:
//
//	streamgen -kind clusters -n 200000 | biasedres -lambda 1e-3
//	biasedres -in stream.csv -lambda 1e-4 -capacity 500 -dump sample.csv
//	biasedres -in kddcup.data -format kdd -lambda 1e-4 -capacity 1000 \
//	          -query classdist -h 10000
//	biasedres -in stream.csv -policy variable -lambda 1e-4 -capacity 500
//	biasedres -in stream.csv -policy unbiased -capacity 1000
//
// Input formats:
//
//	csv   index,label,weight,v0,v1,...   (the library's layout; default)
//	kdd   the raw KDD CUP 1999 format (41 features + label), z-normalized
//
// Policies are the sampler families of the daemon's create request (see
// docs/QUERY_API.md), built from the same registry with the same meaning:
// biased is Algorithm 2.1 when -capacity is 0 (capacity ⌊1/λ⌋) and
// Algorithm 3.1 within -capacity otherwise; variable is variable reservoir
// sampling (Theorem 3.3). When -capacity is 0, every family except biased
// gets 1000 slots.
//
// Queries (-query, evaluated at end of stream over the last -h arrivals):
//
//	avg        per-dimension average
//	classdist  fractional class distribution
//	median     per-dimension median
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"biasedres/internal/core"
	"biasedres/internal/query"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// defaultCapacity is the slot count of every family but biased when
// -capacity is 0; biased then derives ⌊1/λ⌋ itself.
const defaultCapacity = 1000

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "biasedres: %v\n", err)
		os.Exit(1)
	}
}

// config holds the parsed command line.
type config struct {
	in       string
	format   string
	policy   string
	lambda   float64
	capacity int
	window   uint64
	seed     uint64
	dump     string
	queryTy  string
	horizon  uint64
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("biasedres", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.in, "in", "", "input file (default stdin)")
	fs.StringVar(&cfg.format, "format", "csv", "input format: csv | kdd")
	fs.StringVar(&cfg.policy, "policy", "biased", "sampling policy: "+strings.Join(core.Policies(), " | "))
	fs.Float64Var(&cfg.lambda, "lambda", 1e-4, "bias rate λ (policies with a bias rate)")
	fs.IntVar(&cfg.capacity, "capacity", 0, "reservoir capacity (0 = derive from λ for the biased policy, 1000 otherwise)")
	fs.Uint64Var(&cfg.window, "window", 10000, "window length (window policy)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	fs.StringVar(&cfg.dump, "dump", "", "write the final sample as CSV to this file ('-' for stdout)")
	fs.StringVar(&cfg.queryTy, "query", "", "query to evaluate at end of stream: avg | classdist | median")
	fs.Uint64Var(&cfg.horizon, "h", 10000, "query horizon in arrivals")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return cfg, nil
}

// run is the testable entry point.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}

	var r io.Reader = stdin
	if cfg.in != "" {
		f, err := os.Open(cfg.in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = bufio.NewReader(f)
	}

	src, errFn, err := buildSource(cfg, r)
	if err != nil {
		return err
	}
	sampler, err := buildSampler(cfg)
	if err != nil {
		return err
	}

	labels := make(map[int]uint64)
	var dim int
	for {
		p, ok := src.Next()
		if !ok {
			break
		}
		sampler.Add(p)
		labels[p.Label]++
		if dim == 0 {
			dim = p.Dim()
		}
	}
	if err := errFn(); err != nil {
		return err
	}
	if sampler.Processed() == 0 {
		return fmt.Errorf("no input points")
	}

	report(stderr, sampler, labels)

	if cfg.queryTy != "" {
		if err := runQuery(stdout, sampler, cfg, dim); err != nil {
			return err
		}
	}

	if cfg.dump != "" {
		out, closeFn, err := openDump(cfg.dump, stdout)
		if err != nil {
			return err
		}
		defer closeFn()
		w := bufio.NewWriter(out)
		if _, err := stream.WriteCSV(w, stream.FromSlice(sampler.Sample())); err != nil {
			return err
		}
		return w.Flush()
	}
	return nil
}

func openDump(path string, stdout io.Writer) (io.Writer, func(), error) {
	if path == "-" {
		return stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// buildSource returns the input stream and a deferred error check.
func buildSource(cfg *config, r io.Reader) (stream.Stream, func() error, error) {
	switch cfg.format {
	case "csv":
		cr := stream.NewCSVReader(r)
		return cr, cr.Err, nil
	case "kdd":
		kr := stream.NewKDDReader(r, false)
		zn, err := stream.NewZNormalizer(kr, 1000)
		if err != nil {
			return nil, nil, err
		}
		return zn, kr.Err, nil
	default:
		return nil, nil, fmt.Errorf("unknown format %q (csv | kdd)", cfg.format)
	}
}

// buildSampler builds the -policy family through core.SamplerFactory, the
// one table of families the daemon also builds from.
func buildSampler(cfg *config) (core.Sampler, error) {
	c := core.SamplerConfig{Policy: cfg.policy, Lambda: cfg.lambda, Capacity: cfg.capacity, Window: cfg.window}
	if c.Capacity == 0 && c.Policy != "biased" {
		c.Capacity = defaultCapacity
	}
	fresh, err := core.SamplerFactory(c)
	if err != nil {
		return nil, err
	}
	return fresh(xrand.New(cfg.seed))
}

func runQuery(w io.Writer, s core.Sampler, cfg *config, dim int) error {
	snap := core.SnapshotOf(s)
	switch cfg.queryTy {
	case "avg":
		avg, err := query.Accumulate(snap, cfg.horizon, dim, nil).Average()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "average over last %d arrivals:\n", cfg.horizon)
		for d, v := range avg {
			fmt.Fprintf(w, "  dim %-3d %.6f\n", d, v)
		}
	case "classdist":
		dist, err := query.Accumulate(snap, cfg.horizon, 0, nil).Distribution()
		if err != nil {
			return err
		}
		type kv struct {
			label int
			frac  float64
		}
		rows := make([]kv, 0, len(dist))
		for l, f := range dist {
			rows = append(rows, kv{l, f})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].frac > rows[j].frac })
		fmt.Fprintf(w, "class distribution over last %d arrivals:\n", cfg.horizon)
		for _, row := range rows {
			fmt.Fprintf(w, "  label %-6d %.6f\n", row.label, row.frac)
		}
	case "median":
		fmt.Fprintf(w, "median over last %d arrivals:\n", cfg.horizon)
		for d := 0; d < dim; d++ {
			m, err := query.QuantileOn(snap, cfg.horizon, d, 0.5)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  dim %-3d %.6f\n", d, m)
		}
	default:
		return fmt.Errorf("unknown query %q (avg | classdist | median)", cfg.queryTy)
	}
	return nil
}

func report(w io.Writer, s core.Sampler, labels map[int]uint64) {
	fmt.Fprintf(w, "processed: %d points\n", s.Processed())
	fmt.Fprintf(w, "reservoir: %d / %d points\n", s.Len(), s.Capacity())

	// Age distribution of the sample.
	pts := s.Points()
	if len(pts) > 0 {
		ages := make([]uint64, len(pts))
		for i, p := range pts {
			ages[i] = s.Processed() - p.Index
		}
		sort.Slice(ages, func(i, j int) bool { return ages[i] < ages[j] })
		fmt.Fprintf(w, "sample age: min=%d median=%d p90=%d max=%d\n",
			ages[0], ages[len(ages)/2], ages[len(ages)*9/10], ages[len(ages)-1])
	}

	// Label mix of the stream vs the sample (top 5 stream labels).
	type lc struct {
		label int
		n     uint64
	}
	var counts []lc
	var total uint64
	for l, n := range labels {
		counts = append(counts, lc{l, n})
		total += n
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].n > counts[j].n })
	sample := make(map[int]int)
	for _, p := range pts {
		sample[p.Label]++
	}
	fmt.Fprintf(w, "label      stream%%   sample%%\n")
	for i, e := range counts {
		if i == 5 {
			break
		}
		denom := len(pts)
		if denom == 0 {
			denom = 1
		}
		fmt.Fprintf(w, "%-10d %-9.4f %-9.4f\n",
			e.label,
			100*float64(e.n)/float64(total),
			100*float64(sample[e.label])/float64(denom))
	}
}
