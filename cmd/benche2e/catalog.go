package main

// metricDef names one reported metric. BENCHMARK.json declares the same
// names, units and directions (a test keeps the two in step) and holds the
// regression bounds, which -compare reads from it.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of reservoird sees. Every workload reports
// every one of them, so none is ever missing or 0: every workload
// ingests, and latency_* is the latency of the workload's headline
// request, an ingest call on the ingest workloads (where it equals
// ingest_ack_*) and a read on the read workloads. Times and closed-loop
// rates are normalized to the calibration host's speed (hostspeed.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ingest_pts_per_s", "pts/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is reported with -trace 1: span-derived metrics from the
// traced pass, everything else from the untraced one, all as measured,
// not normalized. The ingest acknowledgements of the read workloads and
// the p99 tails sit here, unbounded, because run-to-run they move more
// than any bound the benchmark may set. A request class or layer a
// workload lacks (reads on the ingest workloads, the coordinator outside
// "federated") reads 0 with n = 0.
var perLayer = []metricDef{
	{"ingest_ack_p50_us", "us", "lower"},
	{"ingest_ack_p90_us", "us", "lower"},
	{"ingest_ack_p99_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"proc.cpu_cores", "cores", "lower"},
	{"proc.alloc_mb_per_s", "MB/s", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"gen.late_us_p99", "us", "lower"},
	{"ingest.transport_self_us_mean", "us", "lower"},
	{"server.ingest_handler_us_p50", "us", "lower"},
	{"server.admit_self_us_mean", "us", "lower"},
	{"server.admit_self_us_p50", "us", "lower"},
	{"server.calls_per_ingest", "count", "lower"},
	{"wire.nacks", "count", "lower"},
	{"durable.journal_append_us_mean", "us", "lower"},
	{"durable.journal_bytes_per_pt", "B/pt", "lower"},
	{"durable.fsync_us_p50", "us", "lower"},
	{"durable.fsync_us_p99", "us", "lower"},
	{"durable.fsyncs_per_s", "1/s", "lower"},
	{"durable.ckpt_ms_mean", "ms", "lower"},
	{"durable.ckpts", "count", "lower"},
	{"durable.recover_s", "s", "lower"},
	{"read.transport_self_us_mean", "us", "lower"},
	{"server.read_handler_us_p50", "us", "lower"},
	{"server.read_self_us_p50", "us", "lower"},
	{"server.read_resp_bytes_mean", "B", "lower"},
	{"server.calls_per_read", "count", "lower"},
	{"server.snapshot_rebuilds_per_read", "ratio", "lower"},
	{"server.snapshot_hit_ratio", "ratio", "higher"},
	{"fed.ingest_self_share", "ratio", "lower"},
	{"fed.read_self_share", "ratio", "lower"},
	{"fed.shard_parallelism", "ratio", "higher"},
	{"fed.hedges", "count", "lower"},
	{"fed.partials", "count", "lower"},
	{"fed.create_conflicts", "count", "lower"},
	{"trace.ingest_stage_sum_err_pct", "%", "lower"},
	{"trace.read_stage_sum_err_pct", "%", "lower"},
	{"trace.unattributed_spans", "count", "lower"},
	{"trace.overhead_pct.latency_p50_us", "%", "lower"},
}
