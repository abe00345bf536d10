package main

import (
	"fmt"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// streamDef is one stream a workload creates, and the generator
// connection that feeds it. Every stream is fed by exactly one
// connection; span attribution relies on it.
type streamDef struct {
	name string
	cfg  client.StreamConfig
	conn int
}

// readKind is one read request type of a workload's mix.
type readKind uint8

const (
	readCount readKind = iota
	readAverage
	readClassDist
	readRange
)

var readNames = [...]string{"count", "average", "classdist", "range"}

// readDef is one entry of a read mix, chosen with probability weight/Σ.
type readDef struct {
	weight int
	kind   readKind
	stream string
	h      uint64 // horizon; for range, the span back from the newest point
}

// workload is one traffic mix. Rates are per second; an ingestRate of 0
// means a closed loop on every ingest connection the streams name, and a
// readRate of 0 means no reads.
type workload struct {
	name       string
	why        string
	federated  bool    // coordinator over two data nodes
	async      bool    // data nodes run -ingest-workers 2 -ingest-queue 64
	httpIngest bool    // POST JSON batches instead of wire frames
	ingestRate float64 // points/s, open loop; 0 = closed loop
	streams    []streamDef
	preload    int // points per stream before timing
	readRate   float64
	reads      []readDef
}

const (
	dim       = 10
	batchSize = 256
	ringSize  = 64 << 10
	lambda    = 1e-4
	capacity  = 1000
	horizon   = 2000
)

// ingestStreams is the ingest workloads' stream set: each of four
// policies twice, all on one connection. A second closed-loop connection
// would keep both CPUs of the 2-CPU calibration host busy with the
// generators and the daemon at once, and its numbers then measured the
// scheduler: run to run they spread 0.15–0.32, against 0.04–0.09 for one
// connection (README.md, Workloads).
func ingestStreams() []streamDef {
	var out []streamDef
	for i := 0; i < 2; i++ {
		for _, policy := range []string{"variable", "biased", "ttbs", "rtbs"} {
			out = append(out, streamDef{
				name: fmt.Sprintf("%s-%d", policy, i),
				cfg:  client.StreamConfig{Policy: policy, Lambda: lambda, Capacity: capacity},
			})
		}
	}
	return out
}

var workloads = []workload{
	{
		name:    "ingest-wire",
		why:     "closed loop, 1 wire conn, 256-pt frames into 8 durable sync streams (4 policies x2), no reads: decode, admission, AddBatch and journal append",
		streams: ingestStreams(),
		preload: 8 * batchSize,
	},
	{
		name:       "ingest-http",
		why:        "same streams and data as ingest-wire but as 256-pt JSON POSTs on 1 keep-alive conn: a wire-only change leaves it flat, a core or durable change moves both",
		httpIngest: true,
		streams:    ingestStreams(),
		preload:    8 * batchSize,
	},
	{
		name:       "query-mixed",
		why:        "/query and /range paced at 300 req/s on 1 conn under 200k pts/s open-loop async wire ingest: routing, snapshot rebuilds, kernels and JSON encode",
		async:      true,
		ingestRate: 200_000,
		streams: []streamDef{
			{name: "plain", cfg: client.StreamConfig{Policy: "variable", Lambda: lambda, Capacity: capacity}},
			{name: "tiered", cfg: client.StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: capacity, Tiers: 4}},
		},
		preload:  200_000,
		readRate: 300,
		reads: []readDef{
			{weight: 30, kind: readAverage, stream: "plain", h: horizon},
			{weight: 20, kind: readCount, stream: "plain", h: horizon},
			{weight: 20, kind: readClassDist, stream: "tiered", h: 50_000},
			{weight: 30, kind: readRange, stream: "tiered", h: 100_000},
		},
	},
	{
		name:      "federated",
		why:       "average/count paced at 200 req/s via a coordinator (2 shards x2 replicas, 2 durable nodes) under 50k pts/s open-loop wire ingest: fan-out, hedging and merge",
		federated: true,
		// At 100k points/s the three in-process daemons allocate about
		// 350 MB/s, and their GC cycles (about 9 a second) delay the
		// generators' wake-ups past the validity limit.
		ingestRate: 50_000,
		streams:    []streamDef{{name: "fed", cfg: client.StreamConfig{Policy: "variable", Lambda: lambda, Capacity: capacity}}},
		preload:    100_000,
		readRate:   200,
		reads: []readDef{
			{weight: 50, kind: readAverage, stream: "fed", h: horizon},
			{weight: 50, kind: readCount, stream: "fed", h: horizon},
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	batches [][]client.Point // the evolving-cluster stream, 256-point batches
	reads   []readDef        // the read schedule, one entry per request
}

// makeInputs pre-generates the paper's evolving-cluster stream (dim 10,
// K 4, labels = cluster id) as a 64k-point ring of batches, and a read
// schedule long enough for the whole run.
func makeInputs(w workload, seed uint64, run time.Duration) (*inputs, error) {
	cfg := stream.DefaultClusterConfig()
	cfg.Total = 0
	cfg.Seed = seed
	gen, err := stream.NewClusterGenerator(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	labels := make([]int, cfg.K)
	for i := range labels {
		labels[i] = i
	}
	for b := 0; b < ringSize/batchSize; b++ {
		batch := make([]client.Point, batchSize)
		for i := range batch {
			p, _ := gen.Next()
			batch[i] = client.Point{Values: p.Values, Label: &labels[p.Label]}
		}
		in.batches = append(in.batches, batch)
	}
	if w.readRate == 0 {
		return in, nil
	}
	total := 0
	for _, r := range w.reads {
		total += r.weight
	}
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	n := int(w.readRate*run.Seconds()) + 16
	in.reads = make([]readDef, n)
	for i := range in.reads {
		pick := rng.Intn(total)
		for _, r := range w.reads {
			if pick < r.weight {
				in.reads[i] = r
				break
			}
			pick -= r.weight
		}
	}
	return in, nil
}
