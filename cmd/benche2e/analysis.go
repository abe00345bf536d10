package main

import (
	"sort"
	"strconv"
	"strings"
)

// value is one reported number with the sample count behind it.
type value struct {
	V float64 `json:"value"`
	N int     `json:"n"`
}

// tree is the attributed span forest of one run: every non-root span
// either has a parent index or is counted as unattributed.
type tree struct {
	spans    []span
	parent   []int   // -1 = none
	children [][]int // by parent index
}

// assignParents links spans into trees, from the outside in.
//
//   - Stream name: every stream is fed by exactly one generator
//     connection, so a front ingest span (sink or POST handler) belongs to
//     the call on its stream's connection that was open when it started; a
//     data node's ingest span for shard "s@k" belongs to the coordinator's
//     span for "s"; a journal append belongs to its node's ingest span for
//     the stream the journal file names.
//   - Time containment: reads arrive on a single connection, so a front
//     read span belongs to the read call open when it started, and a data
//     node's /accum span to the coordinator /query span open when it
//     started.
//
// Candidates under one key never overlap (calls on one connection, or on
// one stream, are sequential), so the only possible parent is the last one
// that started at or before the child. A span whose start falls outside
// that candidate stays unattributed.
func assignParents(spans []span, federated bool) *tree {
	t := &tree{spans: spans, parent: make([]int, len(spans)), children: make([][]int, len(spans))}
	index := map[string][]int{}
	key := func(s *span) string {
		switch s.layer {
		case layerRoot:
			return rootKey(s.op, s.stream)
		case layerFed:
			return fedKey(s.op, s.stream)
		case layerServer:
			return serverKey(s.node, s.op, s.stream)
		}
		return ""
	}
	for i := range spans {
		t.parent[i] = -1
		if k := key(&spans[i]); k != "" {
			index[k] = append(index[k], i)
		}
	}
	for _, ids := range index {
		sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].start < spans[ids[b]].start })
	}
	for i := range spans {
		s := &spans[i]
		var k string
		switch {
		case s.layer == layerRoot:
			continue
		case s.layer == layerDurable:
			k = serverKey(s.node, opIngest, s.stream)
		case s.layer == layerServer && federated:
			base, _, _ := strings.Cut(s.stream, "@")
			k = fedKey(s.op, base)
		default:
			k = rootKey(s.op, s.stream)
		}
		ids := index[k]
		j := sort.Search(len(ids), func(j int) bool { return spans[ids[j]].start > s.start }) - 1
		if j < 0 {
			continue
		}
		if p := ids[j]; s.start <= spans[p].end {
			t.parent[i] = p
			t.children[p] = append(t.children[p], i)
		}
	}
	return t
}

// Read calls share one connection, so their key ignores the stream; only
// ingest spans are partitioned by stream.
func rootKey(op opKind, stream string) string {
	if op == opRead {
		return "root/read"
	}
	return "root/ingest/" + stream
}

func fedKey(op opKind, stream string) string {
	if op == opRead {
		return "fed/read"
	}
	return "fed/ingest/" + stream
}

// Journal appends hang off ingest spans only, so a node's read spans on
// the same stream get their own key.
func serverKey(node int, op opKind, stream string) string {
	return "server/" + strconv.Itoa(node) + "/" + strconv.Itoa(int(op)) + "/" + stream
}

// selfTime is a span's duration minus the part of it its children cover.
func (t *tree) selfTime(i int) int64 {
	s := &t.spans[i]
	ivs := make([]interval, 0, len(t.children[i]))
	for _, c := range t.children[i] {
		ivs = append(ivs, interval{t.spans[c].start, t.spans[c].end})
	}
	return s.dur() - unionLen(ivs)
}

// opStages is the per-layer breakdown of one generator call.
type opStages struct {
	queue       float64 // open loop: time from due to send
	self        [numLayers]float64
	front       int     // first child (the front daemon's span), -1 if none
	serverCalls int     // data-node spans under the call
	serverSum   float64 // Σ data-node span durations
	serverUnion float64 // length of their union
	observed    float64 // client-observed latency: due to reply
	dur         float64 // the call's own span
}

// stages walks one root's tree and sums self time per layer, in µs.
// Sibling spans that run in parallel each keep their full self time, so
// a parallel fan-out shows up as stage sums above the observed latency.
func (t *tree) stages(root int) opStages {
	r := &t.spans[root]
	st := opStages{
		queue:    us(r.start - r.due),
		front:    -1,
		observed: us(r.end - r.due),
		dur:      us(r.dur()),
	}
	var server []interval
	var walk func(i int)
	walk = func(i int) {
		s := &t.spans[i]
		st.self[s.layer] += us(t.selfTime(i))
		if s.layer == layerServer {
			st.serverCalls++
			st.serverSum += us(s.dur())
			server = append(server, interval{s.start, s.end})
		}
		for _, c := range t.children[i] {
			walk(c)
		}
	}
	walk(root)
	if len(t.children[root]) > 0 {
		st.front = t.children[root][0]
	}
	st.serverUnion = us(unionLen(server))
	return st
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// traceWindow bounds the analysis: calls and spans that start in
// [w0, w1) count; checkpoints are counted from warm0, the start of the
// warm-up, because the checkpointer wakes only every 10 s.
type traceWindow struct{ warm0, w0, w1 int64 }

func (w traceWindow) in(t int64) bool { return t >= w.w0 && t < w.w1 }

func (w traceWindow) seconds() float64 { return float64(w.w1-w.w0) / 1e9 }

// analyze turns the spans of a traced run — the generators' calls and
// everything the wrappers recorded — and its durability events into the
// per-layer metrics.
func analyze(spans []span, events []durEvent, federated bool, win traceWindow, ackedPoints int) map[string]value {
	t := assignParents(spans, federated)
	out := map[string]value{}

	var ingest, read []opStages
	unattributed := 0
	var journalUS dist
	var journalBytes int64
	for i := range spans {
		s := &spans[i]
		if !win.in(s.start) {
			continue
		}
		switch {
		case s.layer == layerRoot && !s.failed:
			if s.op == opIngest {
				ingest = append(ingest, t.stages(i))
			} else {
				read = append(read, t.stages(i))
			}
		case s.layer != layerRoot && t.parent[i] < 0:
			unattributed++
		}
		if s.layer == layerDurable {
			journalUS = append(journalUS, us(s.dur()))
			journalBytes += s.bytes
		}
	}

	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}
	addStages := func(prefix string, ops []opStages) {
		var transport, server, handler, bytes, calls, observed, stageSum dist
		var durSum, fedSum, serverSum, serverUnion float64
		for _, o := range ops {
			transport = append(transport, o.self[layerRoot])
			server = append(server, o.self[layerServer])
			fedSum += o.self[layerFed]
			durSum += o.dur
			calls = append(calls, float64(o.serverCalls))
			serverSum += o.serverSum
			serverUnion += o.serverUnion
			observed = append(observed, o.observed)
			sum := o.queue
			for _, v := range o.self {
				sum += v
			}
			stageSum = append(stageSum, sum)
			if o.front >= 0 {
				f := &t.spans[o.front]
				handler = append(handler, us(f.dur()))
				bytes = append(bytes, float64(f.bytes))
			}
		}
		n := len(ops)
		out[prefix+".transport_self_us_mean"] = value{transport.mean(), n}
		out["server."+prefix+"_handler_us_p50"] = value{handler.percentile(50), len(handler)}
		out["server.calls_per_"+prefix] = value{calls.mean(), n}
		out["fed."+prefix+"_self_share"] = value{share(fedSum, durSum), n}
		errPct := 0.0
		if m := observed.mean(); m > 0 {
			errPct = 100 * abs(stageSum.mean()-m) / m
		}
		out["trace."+prefix+"_stage_sum_err_pct"] = value{errPct, n}
		if prefix == "ingest" {
			out["server.admit_self_us_mean"] = value{server.mean(), n}
			out["server.admit_self_us_p50"] = value{server.percentile(50), n}
		} else {
			out["server.read_self_us_p50"] = value{server.percentile(50), n}
			out["server.read_resp_bytes_mean"] = value{bytes.mean(), len(bytes)}
			out["fed.shard_parallelism"] = value{share(serverSum, serverUnion), n}
		}
	}
	addStages("ingest", ingest)
	addStages("read", read)
	out["trace.unattributed_spans"] = value{float64(unattributed), len(spans)}

	out["durable.journal_append_us_mean"] = value{journalUS.mean(), len(journalUS)}
	bpp := 0.0
	if ackedPoints > 0 {
		bpp = float64(journalBytes) / float64(ackedPoints)
	}
	out["durable.journal_bytes_per_pt"] = value{bpp, ackedPoints}

	var fsync, ckpt dist
	for _, e := range events {
		switch {
		case e.ckpt && e.start >= win.warm0 && e.start < win.w1:
			ckpt = append(ckpt, float64(e.end-e.start)/1e6)
		case !e.ckpt && win.in(e.start):
			fsync = append(fsync, us(e.end-e.start))
		}
	}
	out["durable.fsync_us_p50"] = value{fsync.percentile(50), len(fsync)}
	out["durable.fsync_us_p99"] = value{fsync.percentile(99), len(fsync)}
	out["durable.fsyncs_per_s"] = value{float64(len(fsync)) / win.seconds(), len(fsync)}
	out["durable.ckpt_ms_mean"] = value{ckpt.mean(), len(ckpt)}
	out["durable.ckpts"] = value{float64(len(ckpt)), len(ckpt)}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
