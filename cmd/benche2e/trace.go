package main

import (
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"biasedres/internal/durable"
	"biasedres/internal/wire"
)

// Tracing records spans only from wrappers around the layers' public
// interfaces — wire.Sink, http.Handler, durable.FS/File — plus the
// generators' own client calls. The program under test is never edited,
// so stages that happen inside one call (kernel vs encode, queue wait,
// AddBatch) stay in that call's self time.

// layer orders the span layers from the client inwards; a span's parent
// is always in a shallower layer.
type layer uint8

const (
	layerRoot    layer = iota // a generator's client call
	layerFed                  // federation coordinator: sink or /query handler
	layerServer               // data node: sink or ingest/read handler
	layerDurable              // journal append (File.Write on *.journal)
	numLayers
)

var layerNames = [numLayers]string{"transport", "fed", "server", "durable"}

// opKind separates the ingest tree from the read tree.
type opKind uint8

const (
	opIngest opKind = iota
	opRead
)

// span is one timed call. Times are nanoseconds on the run's clock.
type span struct {
	layer  layer
	op     opKind
	node   int    // daemon index (0 = first data node; coordinator after the nodes)
	stream string // target stream (ingest and journal spans)
	due    int64  // open-loop due time; equals start for closed-loop calls
	start  int64
	end    int64
	points int   // points carried (ingest)
	bytes  int64 // response bytes (read handlers) or bytes appended (journal)
	failed bool
}

func (s *span) dur() int64 { return s.end - s.start }

// clock is the run's single time base, shared by generators and wrappers.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// durEvent is a durability event outside the ingest tree: a journal fsync
// or a whole checkpoint write.
type durEvent struct {
	node       int
	ckpt       bool // false = journal fsync
	start, end int64
}

// recorder keeps spans in memory; they are analysed, and optionally
// written out, after the run.
type recorder struct {
	clock
	mu     sync.Mutex
	spans  []span
	events []durEvent
	names  map[string]string
}

func newRecorder(c clock) *recorder {
	return &recorder{clock: c, spans: make([]span, 0, 1<<16), names: map[string]string{}}
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) addEvent(e durEvent) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// reset drops everything recorded so far (the set-ups before the window).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans, r.events = r.spans[:0], r.events[:0]
	r.mu.Unlock()
}

// recorded returns copies of the spans and events recorded so far.
func (r *recorder) recorded() ([]span, []durEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), append([]durEvent(nil), r.events...)
}

// intern returns a stable string for a frame's name bytes, which the
// listener reuses after the call; the map probe does not allocate.
func (r *recorder) intern(b []byte) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	r.names[s] = s
	return s
}

// tracedSink times wire.Sink.IngestFrame, for a data node or a coordinator.
type tracedSink struct {
	inner wire.Sink
	rec   *recorder
	node  int
	layer layer
}

func (t tracedSink) IngestFrame(f *wire.Frame) wire.Reply {
	start := t.rec.now()
	r := t.inner.IngestFrame(f)
	t.rec.add(span{layer: t.layer, op: opIngest, node: t.node, stream: t.rec.intern(f.Name),
		start: start, end: t.rec.now(), points: f.Count, failed: r.Status != wire.StatusOK})
	return r
}

// tracedHandler times the ingest and read routes of an http.Handler;
// every other route (health probes, /metrics, stream admin) passes through
// untimed.
type tracedHandler struct {
	inner http.Handler
	rec   *recorder
	node  int
	layer layer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, stream, ok := classifyRoute(r.Method, r.URL.Path)
	if !ok {
		t.inner.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	start := t.rec.now()
	t.inner.ServeHTTP(cw, r)
	t.rec.add(span{layer: t.layer, op: op, node: t.node, stream: stream,
		start: start, end: t.rec.now(), bytes: cw.n, failed: cw.status >= 300})
}

// classifyRoute maps a request onto the ingest or read tree:
// POST /streams/{name}/points is ingest; GET …/query, …/range and …/accum
// are reads.
func classifyRoute(method, path string) (opKind, string, bool) {
	rest, ok := strings.CutPrefix(path, "/streams/")
	if !ok {
		return 0, "", false
	}
	name, route, ok := strings.Cut(rest, "/")
	if !ok {
		return 0, "", false
	}
	switch {
	case method == http.MethodPost && route == "points":
		return opIngest, name, true
	case method == http.MethodGet && (route == "query" || route == "range" || route == "accum"):
		return opRead, name, true
	}
	return 0, "", false
}

// countingWriter counts response bytes and remembers the status.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// tracedFS wraps a durable.FS. Journal appends become durable-layer spans
// (their file name names the stream), journal fsyncs become events, and a
// checkpoint — Create of the temp file through the directory fsync that
// follows its rename — becomes one event.
type tracedFS struct {
	inner durable.FS
	rec   *recorder
	node  int

	mu      sync.Mutex
	ckpts   map[string]int64 // temp path → Create time
	renamed []int64          // start times of renamed checkpoints awaiting SyncDir
}

func newTracedFS(inner durable.FS, rec *recorder, node int) *tracedFS {
	return &tracedFS{inner: inner, rec: rec, node: node, ckpts: map[string]int64{}}
}

func (t *tracedFS) MkdirAll(dir string) error                    { return t.inner.MkdirAll(dir) }
func (t *tracedFS) Open(path string) (io.ReadCloser, error)      { return t.inner.Open(path) }
func (t *tracedFS) Remove(path string) error                     { return t.inner.Remove(path) }
func (t *tracedFS) ReadDir(dir string) ([]string, error)         { return t.inner.ReadDir(dir) }
func (t *tracedFS) OpenAppend(path string) (durable.File, error) { return t.open(path, false) }
func (t *tracedFS) Create(path string) (durable.File, error)     { return t.open(path, true) }

func (t *tracedFS) open(path string, create bool) (durable.File, error) {
	start := t.rec.now()
	var f durable.File
	var err error
	if create {
		f, err = t.inner.Create(path)
	} else {
		f, err = t.inner.OpenAppend(path)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case strings.HasSuffix(path, ".ckpt.tmp"):
		t.mu.Lock()
		t.ckpts[path] = start
		t.mu.Unlock()
		return f, nil
	case strings.HasSuffix(path, ".journal"):
		// A created journal starts with a header record (written and
		// synced by the store itself); only appends after it are ops.
		return &tracedJournal{File: f, fs: t, stream: journalStream(path), header: create}, nil
	}
	return f, nil
}

func (t *tracedFS) Rename(oldpath, newpath string) error {
	err := t.inner.Rename(oldpath, newpath)
	t.mu.Lock()
	if start, ok := t.ckpts[oldpath]; ok {
		delete(t.ckpts, oldpath)
		if err == nil {
			t.renamed = append(t.renamed, start)
		}
	}
	t.mu.Unlock()
	return err
}

func (t *tracedFS) SyncDir(dir string) error {
	err := t.inner.SyncDir(dir)
	end := t.rec.now()
	t.mu.Lock()
	done := t.renamed
	t.renamed = nil
	t.mu.Unlock()
	for _, start := range done {
		t.rec.addEvent(durEvent{node: t.node, ckpt: true, start: start, end: end})
	}
	return err
}

// journalStream recovers the stream name from a journal file name,
// st-<path-escaped name>.<seq>.journal.
func journalStream(path string) string {
	base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "st-"), ".journal")
	if i := strings.LastIndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	name, err := url.PathUnescape(base)
	if err != nil {
		return base
	}
	return name
}

// tracedJournal times appends and fsyncs on one journal file.
type tracedJournal struct {
	durable.File
	fs     *tracedFS
	stream string
	header bool
}

func (j *tracedJournal) Write(b []byte) (int, error) {
	if j.header {
		j.header = false
		return j.File.Write(b)
	}
	start := j.fs.rec.now()
	n, err := j.File.Write(b)
	j.fs.rec.add(span{layer: layerDurable, op: opIngest, node: j.fs.node, stream: j.stream,
		start: start, end: j.fs.rec.now(), bytes: int64(n), failed: err != nil})
	return n, err
}

func (j *tracedJournal) Sync() error {
	start := j.fs.rec.now()
	err := j.File.Sync()
	j.fs.rec.addEvent(durEvent{node: j.fs.node, start: start, end: j.fs.rec.now()})
	return err
}
