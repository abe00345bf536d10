package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/durable"
	"biasedres/internal/server"
)

// passConfig is one measured pass of one workload.
type passConfig struct {
	w       workload
	seed    uint64
	warmup  time.Duration
	window  time.Duration
	setups  int    // set-ups timed; the last one is measured
	traced  bool   // record spans for the per-layer metrics
	dataDir string // parent of this pass's daemon data directories
	spans   string // file to write the traced spans to ("" = don't)
}

// passResult is what a pass reports: every metric it computed, and how
// many operations and checks it attempted and failed.
type passResult struct {
	Metrics   map[string]value
	Attempted int
	Failed    int
}

// topology is the daemons of one set-up: one data node, or a coordinator
// over two.
type topology struct {
	nodes []*daemon
	coord *daemon

	conflicts int           // federated creates that answered 409 (see setUp)
	untimed   time.Duration // time spent completing them, left out of setup_s
}

func (t *topology) front() *daemon {
	if t.coord != nil {
		return t.coord
	}
	return t.nodes[0]
}

func (t *topology) all() []*daemon {
	if t.coord != nil {
		return append([]*daemon{t.coord}, t.nodes...)
	}
	return t.nodes
}

// close stops the coordinator first, then the data nodes.
func (t *topology) close() error {
	var first error
	for _, d := range t.all() {
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newClient returns an HTTP client with its own transport limited to one
// connection, so a generator is exactly one keep-alive connection.
func newClient(base string) (*client.Client, *http.Transport, error) {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
		IdleConnTimeout: 90 * time.Second}
	cl, err := client.New(base, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second}))
	return cl, tr, err
}

// setUp starts the workload's daemons in dir, creates its streams (each
// creation fsyncs a checkpoint) and preloads them. This is what setup_s
// times.
func setUp(w workload, in *inputs, dir string, rec *recorder, ack acked) (*topology, error) {
	topo := &topology{}
	nodes := 1
	if w.federated {
		nodes = 2
	}
	for i := 0; i < nodes; i++ {
		d, err := startNode(filepath.Join(dir, fmt.Sprintf("node%d", i)), w.async, rec, i)
		if err != nil {
			topo.close()
			return nil, err
		}
		topo.nodes = append(topo.nodes, d)
	}
	if w.federated {
		peers := []string{topo.nodes[0].base, topo.nodes[1].base}
		d, err := startCoordinator(peers, rec, nodes)
		if err != nil {
			topo.close()
			return nil, err
		}
		topo.coord = d
	}
	fail := func(err error) (*topology, error) {
		topo.close()
		return nil, err
	}
	admin, tr, err := newClient(topo.front().base)
	if err != nil {
		return fail(err)
	}
	defer tr.CloseIdleConnections()
	for _, s := range w.streams {
		err := admin.CreateStream(s.name, s.cfg)
		var apiErr *client.APIError
		if topo.coord != nil && errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
			// A health sweep that lists the new shard streams while the
			// create is still fanning out adopts the stream from those
			// hints, and the create then answers 409 although every shard
			// exists. One more sweep completes the adopted shard count.
			// The sweep and the check that the stream is whole are left
			// out of setup_s and counted as fed.create_conflicts.
			t0 := time.Now()
			topo.coord.co.Sweep(context.Background())
			if err = checkFederated(topo, tr, s.name); err != nil {
				err = fmt.Errorf("after a 409 and a sweep: %w", err)
			} else {
				fmt.Fprintf(os.Stderr, "benche2e: %s: creating %s answered 409 (%v); a sweep completed it\n",
					w.name, s.name, apiErr)
			}
			topo.conflicts++
			topo.untimed += time.Since(t0)
		}
		if err != nil {
			return fail(fmt.Errorf("creating %s: %w", s.name, err))
		}
	}
	wc, err := client.DialWire(topo.front().wireAddr, client.WireConnConfig{})
	if err != nil {
		return fail(err)
	}
	defer wc.Close()
	// Async nodes accept a frame only while the stream's 64-batch queue
	// has room, and a full queue costs a 1 s retry; the preload keeps at
	// most 32 batches queued per stream by waiting for the workers.
	const inFlight = 32
	for _, s := range w.streams {
		for sent, b := 0, 0; sent < w.preload; b++ {
			batch := in.batches[b%len(in.batches)]
			if err := wc.Push(s.name, batch); err != nil {
				return fail(fmt.Errorf("preloading %s: %w", s.name, err))
			}
			sent += len(batch)
			ack[s.name].Add(int64(len(batch)))
			if w.async && b%inFlight == inFlight-1 {
				if err := waitApplied(admin, s.name, ack[s.name].Load()-inFlight/2*batchSize, 30*time.Second); err != nil {
					return fail(err)
				}
			}
		}
	}
	if w.async {
		for _, s := range w.streams {
			if err := waitApplied(admin, s.name, ack[s.name].Load(), 30*time.Second); err != nil {
				return fail(err)
			}
		}
	}
	return topo, nil
}

// checkFederated requires the coordinator to answer for every shard of a
// managed stream and every data node to hold a replica of every shard, as
// Replication 2 and Shards 2 over two nodes place them.
func checkFederated(topo *topology, tr *http.Transport, name string) error {
	resp, err := (&http.Client{Transport: tr, Timeout: 30 * time.Second}).Get(
		topo.coord.base + "/streams/" + name + "/query?type=count&h=0")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var q struct {
		OK    int `json:"shards_ok"`
		Total int `json:"shards_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		return fmt.Errorf("coordinator count: status %d: %w", resp.StatusCode, err)
	}
	if q.OK != fedShards || q.Total != fedShards {
		return fmt.Errorf("coordinator answers from %d of %d shards, want %d of %d", q.OK, q.Total, fedShards, fedShards)
	}
	counts, err := readCounts(topo)
	if err != nil {
		return err
	}
	for i, c := range counts {
		for k := 0; k < fedShards; k++ {
			if _, ok := c[fmt.Sprintf("%s@%d", name, k)]; !ok {
				return fmt.Errorf("node %d holds no replica of %s@%d", i, name, k)
			}
		}
	}
	return nil
}

// waitApplied polls a stream until it has processed at least want points.
func waitApplied(cl *client.Client, name string, want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := cl.Stats(name)
		if err != nil {
			return err
		}
		if int64(st.Processed) >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stream %s processed %d of %d points", name, st.Processed, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// procSample is whole-process CPU and allocation at one instant.
type procSample struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// scrape sums every sample of each metric family in the daemons' /metrics.
func scrape(ds []*daemon) (map[string]float64, error) {
	out := map[string]float64{}
	for _, d := range ds {
		cl, tr, err := newClient(d.base)
		if err != nil {
			return nil, err
		}
		text, err := cl.Metrics()
		tr.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(text, "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			name := line[:i]
			if j := strings.IndexByte(name, '{'); j >= 0 {
				name = name[:j]
			}
			out[name] += v
		}
	}
	return out, nil
}

// runPass runs one workload once: several timed set-ups, a warm-up, the
// measured window, then the correctness checks and the restart check.
func runPass(cfg passConfig) (*passResult, error) {
	w := cfg.w
	clk := clock{base: time.Now()}
	in, err := makeInputs(w, cfg.seed, cfg.warmup+cfg.window)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder(clk)
	}
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.dataDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var setupS dist
	var started int64 // when the measured set-up began
	var topo *topology
	var ack acked
	conflicts := 0
	for i := 0; i < cfg.setups; i++ {
		ack = acked{}
		for _, s := range w.streams {
			ack[s.name] = new(atomic.Int64)
		}
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", i))
		started = clk.now()
		topo, err = setUp(w, in, dir, rec, ack)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, us(clk.now()-started-int64(topo.untimed))/1e6)
		conflicts += topo.conflicts
		if i < cfg.setups-1 {
			if err := topo.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
	}
	if rec != nil {
		rec.reset()
	}
	defer func() {
		if topo != nil {
			topo.close()
		}
	}()

	res, err := measure(cfg, clk, started, in, topo, rec, ack)
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = value{setupS.percentile(50), len(setupS)}
	res.Metrics["fed.create_conflicts"] = value{float64(conflicts), len(setupS)}

	// Correctness after the window: every acknowledged point was applied
	// exactly once, and a restart recovers every stream unchanged.
	res.Attempted += 2
	counts, err := checkProcessed(topo, w, ack)
	if err != nil {
		res.Failed++
		fmt.Fprintf(os.Stderr, "benche2e: %s: processed check: %v\n", w.name, err)
	}
	if err := topo.close(); err != nil {
		return nil, err
	}
	recoverS, err := restartCheck(topo, w, counts)
	topo = nil
	if err != nil {
		res.Failed++
		fmt.Fprintf(os.Stderr, "benche2e: %s: restart check: %v\n", w.name, err)
	}
	res.Metrics["durable.recover_s"] = value{recoverS.mean(), len(recoverS)}
	res.Metrics["peak_rss_mb"] = value{peakRSSMB(), 1}
	return res, nil
}

// measure runs the generators through the warm-up and the window and
// computes every metric the window yields. The window opens cfg.warmup
// after the daemons started: with the 5 s warm-up and the daemons' 10 s
// checkpoint interval, a window of n×10 s always holds exactly n periodic
// checkpoints of every stream (at 10 s, 20 s, … after the start), never
// one more or one fewer.
func measure(cfg passConfig, clk clock, started int64, in *inputs, topo *topology, rec *recorder, ack acked) (*passResult, error) {
	w := cfg.w
	front := topo.front()
	g0 := clk.now()
	w0 := max(g0, started+int64(cfg.warmup))
	w1 := w0 + int64(cfg.window)
	fails := &failures{}

	var streamsByConn [][]string
	for _, s := range w.streams {
		for len(streamsByConn) <= s.conn {
			streamsByConn = append(streamsByConn, nil)
		}
		streamsByConn[s.conn] = append(streamsByConn[s.conn], s.name)
	}

	var mu sync.Mutex
	var roots []span
	var late dist
	collect := func(ops []span, lateUS []float64) {
		mu.Lock()
		roots = append(roots, ops...)
		late = append(late, lateUS...)
		mu.Unlock()
	}
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	// Every connection is open before any generator starts, so a failed
	// dial leaves nothing running.
	pushes := make([]pushFunc, len(streamsByConn))
	for conn := range pushes {
		if w.httpIngest {
			cl, tr, err := newClient(front.base)
			if err != nil {
				return nil, err
			}
			closers = append(closers, tr.CloseIdleConnections)
			pushes[conn] = func(name string, b []client.Point) error {
				_, err := cl.Push(name, b)
				return err
			}
			continue
		}
		wc, err := client.DialWire(front.wireAddr, client.WireConnConfig{})
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { wc.Close() })
		pushes[conn] = wc.Push
	}
	var readCl *client.Client
	if w.readRate > 0 {
		cl, tr, err := newClient(front.base)
		if err != nil {
			return nil, err
		}
		closers = append(closers, tr.CloseIdleConnections)
		readCl = cl
	}

	var wg sync.WaitGroup
	for conn, streams := range streamsByConn {
		wg.Add(1)
		go func(conn int, streams []string) {
			defer wg.Done()
			if w.ingestRate == 0 {
				collect(closedIngest(clk, w1, conn, streams, in.batches, pushes[conn], ack, fails), nil)
				return
			}
			sched := &schedule{clk: clk, from: g0, period: 1e9 * batchSize / w.ingestRate}
			collect(openIngest(sched, w1, streams, in.batches, pushes[conn], ack, fails), sched.late)
		}(conn, streams)
	}
	if readCl != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			collect(pacedReads(clk, 1e9/w.readRate, w1, in.reads, readCl, ack, fails), nil)
		}()
	}

	// Window boundaries: counters and process state are sampled at w0 and
	// w1; the generators keep running across both and stop by themselves
	// at w1.
	time.Sleep(time.Duration(w0 - clk.now()))
	m0, err0 := scrape(topo.all())
	p0 := sampleProc()
	time.Sleep(time.Duration(w1 - clk.now()))
	p1 := sampleProc()
	m1, err1 := scrape(topo.all())
	wg.Wait()
	if err := errors.Join(err0, err1); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}

	win := traceWindow{warm0: g0, w0: w0, w1: w1}
	res := &passResult{Metrics: map[string]value{}}
	var ingestLat, readLat dist
	ingested := 0
	// The window in slices of about a second, for a closed loop's rate.
	perSlice := make([]int, max(int(win.seconds()+0.5), 1))
	sliceNS := (w1 - w0) / int64(len(perSlice))
	for i := range roots {
		r := &roots[i]
		if r.op == opIngest && !r.failed && win.in(r.end) {
			ingested += r.points
			perSlice[min(int((r.end-w0)/sliceNS), len(perSlice)-1)] += r.points
		}
		if !win.in(r.due) {
			continue
		}
		res.Attempted++
		if r.failed {
			res.Failed++
			continue
		}
		if r.op == opIngest {
			ingestLat = append(ingestLat, us(r.end-r.due))
		} else {
			readLat = append(readLat, us(r.end-r.due))
		}
	}
	// A federated answer assembled from fewer shards than exist is a
	// failed read even though it is a 200.
	partials := int(m1["biasedres_fed_partial_responses_total"] - m0["biasedres_fed_partial_responses_total"])
	res.Failed += partials

	secs := win.seconds()
	m := res.Metrics
	// An open loop's rate is what its schedule achieved over the window,
	// the catch-up after a stall included. A closed loop's is the median of
	// its one-second slices, so a second in which the host stalled the
	// process moves it no more than any other second does.
	rate := float64(ingested) / secs
	if w.ingestRate == 0 {
		rates := make(dist, len(perSlice))
		for i, n := range perSlice {
			rates[i] = float64(n) / (float64(sliceNS) / 1e9)
		}
		rate = rates.percentile(50)
	}
	m["ingest_pts_per_s"] = value{rate, len(ingestLat)}
	m["ingest_ack_p50_us"] = value{ingestLat.percentile(50), len(ingestLat)}
	m["ingest_ack_p90_us"] = value{ingestLat.percentile(90), len(ingestLat)}
	m["ingest_ack_p99_us"] = value{ingestLat.percentile(99), len(ingestLat)}
	headline := readLat
	if w.readRate == 0 {
		headline = ingestLat
	}
	m["latency_p50_us"] = value{headline.percentile(50), len(headline)}
	m["latency_p90_us"] = value{headline.percentile(90), len(headline)}
	m["latency_p99_us"] = value{headline.percentile(99), len(headline)}

	m["proc.cpu_cores"] = value{(p1.cpu - p0.cpu).Seconds() / secs, 1}
	m["proc.alloc_mb_per_s"] = value{float64(p1.totalAlloc-p0.totalAlloc) / (1 << 20) / secs, 1}
	m["proc.gc_cycles"] = value{float64(p1.numGC - p0.numGC), 1}
	m["gen.late_us_p99"] = value{late.percentile(99), len(late)}
	// Validity is not correctness: a pass whose open-loop generators woke
	// late still checked every answer, but its latencies, timed from the
	// due time, carry the generators' own delay.
	valid := 1.0
	if p := late.percentile(99); p > lateLimitUS {
		valid = 0
		fmt.Fprintf(os.Stderr, "benche2e: %s: invalid pass: generators woke %.0f µs late (p99), limit %d µs\n",
			w.name, p, lateLimitUS)
	}
	m["valid"] = value{valid, len(late)}

	delta := func(name string) float64 { return m1[name] - m0[name] }
	m["wire.nacks"] = value{delta("biasedres_wire_nacks_total"), 1}
	m["fed.hedges"] = value{delta("biasedres_fed_hedged_requests_total"), 1}
	m["fed.partials"] = value{float64(partials), 1}
	hits, misses := delta("biasedres_snapshot_cache_hits_total"), delta("biasedres_snapshot_cache_misses_total")
	reads := hits + misses
	ratio := func(x float64) float64 {
		if reads == 0 {
			return 0
		}
		return x / reads
	}
	m["server.snapshot_rebuilds_per_read"] = value{ratio(delta("biasedres_snapshot_cache_rebuilds_total")), int(reads)}
	m["server.snapshot_hit_ratio"] = value{ratio(hits), int(reads)}

	if rec != nil {
		spans, events := rec.recorded()
		all := append(roots, spans...)
		for k, v := range analyze(all, events, w.federated, win, ingested) {
			m[k] = v
		}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, all, w.federated); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// checkProcessed reads every stream's processed count on every data node
// and checks it against the acknowledged points: the streams of a single
// node sum to them, and under federation every replica of a shard agrees
// and the shards sum to them. Async nodes get up to 30 s to drain. It
// returns the counts, per node, for the restart check.
func checkProcessed(topo *topology, w workload, ack acked) ([]map[string]uint64, error) {
	want := uint64(ack.total())
	deadline := time.Now().Add(30 * time.Second)
	for {
		counts, err := readCounts(topo)
		if err != nil {
			return nil, err
		}
		shards := map[string]uint64{}
		var mismatch error
		for i, c := range counts {
			for name, n := range c {
				if prev, ok := shards[name]; ok && prev != n {
					mismatch = fmt.Errorf("replicas of %s disagree: %d vs %d (node %d)", name, prev, n, i)
				}
				shards[name] = n
			}
		}
		var got uint64
		for _, n := range shards {
			got += n
		}
		if mismatch == nil && got != want {
			mismatch = fmt.Errorf("streams processed %d points, %d were acknowledged", got, want)
		}
		if mismatch == nil {
			return counts, nil
		}
		if !w.async || time.Now().After(deadline) {
			return counts, mismatch
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readCounts lists every data node's streams and their processed counts.
func readCounts(topo *topology) ([]map[string]uint64, error) {
	var out []map[string]uint64
	for _, d := range topo.nodes {
		cl, tr, err := newClient(d.base)
		if err != nil {
			return nil, err
		}
		names, err := cl.ListStreams()
		if err != nil {
			tr.CloseIdleConnections()
			return nil, err
		}
		c := map[string]uint64{}
		for _, name := range names {
			st, err := cl.Stats(name)
			if err != nil {
				tr.CloseIdleConnections()
				return nil, err
			}
			c[name] = st.Processed
		}
		tr.CloseIdleConnections()
		out = append(out, c)
	}
	return out, nil
}

// restartCheck reopens each stopped data node on its data directory, as a
// restarted reservoird would, times the recovery and requires every
// stream's processed count to be what it was before the stop.
func restartCheck(topo *topology, w workload, before []map[string]uint64) (dist, error) {
	var times dist
	var first error
	for i, d := range topo.nodes {
		start := time.Now()
		opts, err := nodeOptions(durable.OSFS{}, d.dir, w.async)
		if err != nil {
			return times, err
		}
		api := server.New(daemonSeed, opts...)
		times = append(times, time.Since(start).Seconds())
		if i < len(before) {
			for name, want := range before[i] {
				if got, err := processedOf(api, name); err != nil || got != want {
					if first == nil {
						first = fmt.Errorf("node %d stream %s: processed %d after restart, %d before (%v)", i, name, got, want, err)
					}
				}
			}
		}
		api.Close()
	}
	if before == nil && first == nil {
		first = fmt.Errorf("no pre-restart counts to compare")
	}
	return times, first
}

// processedOf asks a server that has no listener for a stream's count.
func processedOf(api *server.Server, name string) (uint64, error) {
	rr := httptest.NewRecorder()
	api.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/streams/"+name, nil))
	if rr.Code != http.StatusOK {
		return 0, fmt.Errorf("status %d", rr.Code)
	}
	var st client.Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		return 0, err
	}
	return st.Processed, nil
}

// writeSpans writes the traced spans, parents resolved, as JSON lines.
func writeSpans(path string, spans []span, federated bool) error {
	t := assignParents(spans, federated)
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, i := range order {
		s := &spans[i]
		name := layerNames[s.layer] + "/" + [...]string{"ingest", "read"}[s.op]
		if err := enc.Encode(map[string]any{"id": i, "parent": t.parent[i], "name": name,
			"node": s.node, "stream": s.stream, "start": s.start, "end": s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
