package main

import (
	"math"
	"testing"
)

func root(op opKind, stream string, due, start, end int64) span {
	return span{layer: layerRoot, op: op, stream: stream, due: due, start: start, end: end}
}

func child(l layer, op opKind, node int, stream string, start, end int64) span {
	return span{layer: l, op: op, node: node, stream: stream, start: start, end: end}
}

// Stream-name attribution: each stream belongs to one connection, so the
// sink span for stream b attaches to the call on b's stream even while a
// call for another stream overlaps it, and the journal append
// attaches to its node's ingest span for the stream the journal names.
func TestAssignParentsByStreamName(t *testing.T) {
	spans := []span{
		root(opIngest, "a", 0, 0, 100),                    // 0
		root(opIngest, "b", 10, 10, 120),                  // 1
		child(layerServer, opIngest, 0, "b", 20, 110),     // 2: b's sink, overlaps call 0
		child(layerServer, opIngest, 0, "a", 5, 90),       // 3
		child(layerDurable, opIngest, 0, "b", 50, 60),     // 4
		child(layerDurable, opIngest, 0, "a", 95, 99),     // 5: after a's sink ended
		child(layerServer, opRead, 0, "a", 30, 40),        // 6: no read call open
		root(opIngest, "a", 200, 200, 300),                // 7
		child(layerServer, opIngest, 0, "a", 210, 290),    // 8
		child(layerDurable, opIngest, 0, "a", 220, 230),   // 9
		child(layerServer, opIngest, 1, "a", 210, 290),    // 10: other node: no such stream call
		child(layerDurable, opIngest, 1, "zzz", 220, 230), // 11
	}
	tr := assignParents(spans, false)
	want := []int{-1, -1, 1, 0, 2, -1, -1, -1, 7, 8, 7, -1}
	for i, w := range want {
		if tr.parent[i] != w {
			t.Errorf("span %d: parent %d, want %d", i, tr.parent[i], w)
		}
	}
}

// Time containment on the single read connection: the coordinator /query
// span belongs to the open read call, and every node /accum span started
// inside it belongs to it, whichever shard ("s@0", "s@1") it serves.
func TestAssignParentsByContainment(t *testing.T) {
	spans := []span{
		root(opRead, "s", 0, 0, 1000),                  // 0
		child(layerFed, opRead, 2, "s", 50, 900),       // 1
		child(layerServer, opRead, 0, "s@0", 100, 300), // 2
		child(layerServer, opRead, 1, "s@1", 120, 310), // 3
		child(layerServer, opRead, 1, "s@0", 950, 990), // 4: after /query ended
		root(opIngest, "s", 0, 0, 500),                 // 5
		child(layerFed, opIngest, 2, "s", 10, 400),     // 6
		child(layerServer, opIngest, 0, "s@1", 20, 200),
		child(layerDurable, opIngest, 0, "s@1", 30, 40),
	}
	tr := assignParents(spans, true)
	want := []int{-1, 0, 1, 1, -1, -1, 5, 6, 7}
	for i, w := range want {
		if tr.parent[i] != w {
			t.Errorf("span %d: parent %d, want %d", i, tr.parent[i], w)
		}
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		root(opRead, "s", 0, 0, 1000),
		child(layerFed, opRead, 2, "s", 100, 900),      // self: 800 − |[200,600)| = 400
		child(layerServer, opRead, 0, "s@0", 200, 500), // overlapping siblings
		child(layerServer, opRead, 1, "s@1", 300, 600),
	}
	tr := assignParents(spans, true)
	if got := tr.selfTime(0); got != 200 {
		t.Errorf("root self = %d, want 200", got)
	}
	if got := tr.selfTime(1); got != 400 {
		t.Errorf("coordinator self = %d, want 400", got)
	}
	st := tr.stages(0)
	// Parallel siblings keep their full self time: 300 + 300 µs-units of
	// server time inside a 400-unit window, so the stage sum (200 + 400 +
	// 600) overshoots the observed 1000 by 20%.
	if st.serverCalls != 2 || st.serverSum != us(600) || st.serverUnion != us(400) {
		t.Errorf("server calls/sum/union = %d/%v/%v", st.serverCalls, st.serverSum, st.serverUnion)
	}
	sum := st.queue
	for _, v := range st.self {
		sum += v
	}
	if math.Abs(sum-us(1200)) > 1e-9 || st.observed != us(1000) {
		t.Errorf("stage sum %v, observed %v", sum, st.observed)
	}
}

// A span without a parent is counted, and its time appears in no tree.
func TestAnalyzeCountsUnattributed(t *testing.T) {
	spans := []span{
		root(opIngest, "a", 0, 1000, 2000),
		root(opRead, "a", 500, 1500, 2500),
		child(layerServer, opIngest, 0, "a", 1100, 1900),
		child(layerDurable, opIngest, 0, "a", 1200, 1300),
		child(layerDurable, opIngest, 0, "a", 1950, 1980), // async append after the ack
		child(layerServer, opRead, 0, "a", 1600, 2400),
	}
	m := analyze(spans, nil, false, traceWindow{0, 0, 1e9}, 256)
	if got := m["trace.unattributed_spans"].V; got != 1 {
		t.Errorf("unattributed = %v, want 1", got)
	}
	if got := m["ingest.transport_self_us_mean"].V; got != us(200) {
		t.Errorf("ingest transport self = %v, want %v", got, us(200))
	}
	if got := m["server.admit_self_us_mean"].V; got != us(700) {
		t.Errorf("admit self = %v, want %v", got, us(700))
	}
	if got := m["trace.ingest_stage_sum_err_pct"].V; got != 0 {
		t.Errorf("ingest stage sum error = %v%%, want 0", got)
	}
	// The read was due 1000 before it was sent: queue + transport + server
	// add up to the observed 2000.
	if got := m["trace.read_stage_sum_err_pct"].V; got != 0 {
		t.Errorf("read stage sum error = %v%%, want 0", got)
	}
	if got := m["durable.journal_append_us_mean"]; got.N != 2 || got.V != us(65) {
		t.Errorf("journal append = %+v", got)
	}
}
