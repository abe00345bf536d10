package server

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"unsafe"

	"biasedres/internal/core"
	"biasedres/internal/obs"
	"biasedres/internal/stream"
	"biasedres/internal/wire"
)

// ingestBatchBuckets are the batch-size histogram bounds: powers of two
// from a single point up to the largest batch a 64 MiB body can plausibly
// carry.
var ingestBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// batchBuf is one ingest batch, pooled across batches and transports: f
// is the batch from decode to journal, pts the rows apply builds for the
// sampler and model scoring. Samplers copy the values they retain, so the
// storage is free once the batch is applied or refused. Whoever applies
// the batch releases it: admit after an inline apply or any refusal, the
// shard worker after apply and model scoring.
type batchBuf struct {
	f   wire.Frame
	pts []stream.Point
}

var batchPool = sync.Pool{New: func() any { return new(batchBuf) }}

// batchHook, when set, sees every batch buffer taken from the pool
// (released false) and every release (released true), so tests can check
// that each buffer is released exactly once.
var batchHook atomic.Pointer[func(b *batchBuf, released bool)]

// getBatch takes an empty batch buffer from the pool.
func getBatch() *batchBuf {
	b := batchPool.Get().(*batchBuf)
	if h := batchHook.Load(); h != nil {
		(*h)(b, false)
	}
	return b
}

// release returns b to the pool; neither b nor its points may be used
// afterwards. Storage over 1 MiB is left to the garbage collector.
func (b *batchBuf) release() {
	if h := batchHook.Load(); h != nil {
		(*h)(b, true)
	}
	if cap(b.f.Values)*8+cap(b.pts)*int(unsafe.Sizeof(stream.Point{})) > 1<<20 {
		return
	}
	batchPool.Put(b)
}

// ingestShard is the per-stream async ingest lane: a bounded queue of
// pre-validated, index-assigned batches drained by one worker goroutine.
// One worker per stream keeps arrival order — the samplers require points
// in order — while different streams ingest fully in parallel.
type ingestShard struct {
	ch chan *batchBuf
}

// startIngestShard attaches an ingest lane to ms and starts its worker.
// Called with the stream registered; the worker runs until the shard's
// channel is closed (stream deletion or server Close).
func (s *Server) startIngestShard(ms *managedStream) {
	ms.shard = &ingestShard{ch: make(chan *batchBuf, s.ingestQueue)}
	s.ingestWG.Add(1)
	go s.runIngestShard(ms)
}

// runIngestShard drains one stream's queue. The global worker semaphore
// bounds how many shards apply batches simultaneously (the -ingest-workers
// flag), so thousands of idle streams cost goroutines but not CPU
// contention. Model scoring runs inside the semaphore slot too:
// classification is CPU work and must respect -ingest-workers. Time-decay
// streams have no shard, so apply cannot refuse here. The worker releases
// each batch it applied.
func (s *Server) runIngestShard(ms *managedStream) {
	defer s.ingestWG.Done()
	for b := range ms.shard.ch {
		n := b.f.Count
		s.ingestSem <- struct{}{}
		s.apply(ms, b)
		s.observeModel(ms, b.pts)
		<-s.ingestSem
		b.release()
		ms.pending.Add(-int64(n))
		s.applied.With(ms.name).Inc()
	}
}

// admission is admit's outcome. A refusal carries the HTTP status that
// renders it (400, 429 or 503) and consumed nothing; an accepted batch was
// either queued on the stream's shard (pending points after it) or applied
// inline (the stream position after it).
type admission struct {
	status    int // 0 when accepted
	err       error
	queued    bool
	pending   int64
	processed uint64
}

func refuse(status int, format string, args ...any) admission {
	return admission{status: status, err: fmt.Errorf(format, args...)}
}

// IngestFrame implements wire.Sink: the binary ingest path. It copies the
// frame into a pooled batch — the listener reuses the frame, while a
// queued batch outlives this call — and hands it to admit. A full queue
// (429) is StatusBackpressure with the same 1s retry hint, consuming
// nothing; every other refusal is StatusError (resending cannot succeed).
func (s *Server) IngestFrame(f *wire.Frame) wire.Reply {
	// An allocation-free map probe; the frame's name bytes never escape
	// into a string unless a reply message needs them.
	ms, ok := s.reg.GetBytes(f.Name)
	if !ok {
		return wire.Errorf("stream %q not found", f.Name)
	}
	b := getBatch()
	b.f.CopyFrom(f)
	a := s.admit(ms, b)
	switch {
	case a.status == http.StatusTooManyRequests:
		return wire.Nack(1000)
	case a.err != nil:
		return wire.Errorf("%v", a.err)
	}
	return wire.Ack(a.pending)
}

// admit is the one admission step of HTTP and wire ingest: it checks b.f,
// sequences it under qmu, so arrival indices are handed out in one order,
// and queues or applies it. A refused batch consumes nothing: next and dim
// commit only once the batch is queued or applied. admit takes b over: it
// releases b after an inline apply or a refusal, and a queued b passes to
// the shard worker.
func (s *Server) admit(ms *managedStream, b *batchBuf) (a admission) {
	defer func() {
		if !a.queued {
			b.release()
		}
	}()
	f := &b.f
	// Checks that read no stream state run before qmu.
	if err := f.Check(); err != nil {
		return refuse(http.StatusBadRequest, "%v", err)
	}
	// A queued b belongs to the shard worker, so read its shape first.
	count, dim := f.Count, f.Dim

	ms.qmu.Lock()
	if ms.closed {
		ms.qmu.Unlock()
		return refuse(http.StatusServiceUnavailable, "stream %q is shutting down", ms.name)
	}
	if ms.dim != 0 && ms.dim != dim {
		ms.qmu.Unlock()
		return refuse(http.StatusBadRequest, "batch has dim %d, stream has %d", dim, ms.dim)
	}
	next, err := sequence(f, ms.next)
	if err != nil {
		ms.qmu.Unlock()
		return refuse(http.StatusBadRequest, "%v", err)
	}

	if ms.shard != nil {
		// Async lane: hand the batch to the stream's worker under qmu
		// only. A full queue is backpressure. The batch counts as pending
		// before the worker can take it, since the worker subtracts it
		// once applied.
		pending := ms.pending.Add(int64(count))
		select {
		case ms.shard.ch <- b:
		default:
			ms.pending.Add(-int64(count))
			ms.qmu.Unlock()
			s.rejected.With(ms.name).Inc()
			return refuse(http.StatusTooManyRequests,
				"ingest queue for stream %q is full (%d batches); retry later", ms.name, s.ingestQueue)
		}
		ms.next, ms.dim = next, dim
		ms.qmu.Unlock()
		s.countIngest(ms.name, count)
		return admission{queued: true, pending: pending}
	}
	processed, n, err := s.apply(ms, b)
	if n > 0 {
		ms.next, ms.dim = f.Index(n-1), dim
	}
	// Model scoring runs after qmu is released so it never holds up
	// admission.
	ms.qmu.Unlock()
	if err != nil {
		return refuse(http.StatusBadRequest, "%v", err)
	}
	s.observeModel(ms, b.pts)
	s.countIngest(ms.name, n)
	return admission{processed: processed}
}

// sequence gives a batch without arrival indices the ones after next, or
// checks that its own advance the stream, and returns its last index.
// Consecutive indices become f.First, as the journal stores them.
func sequence(f *wire.Frame, next uint64) (uint64, error) {
	if f.First == 0 && f.Indices == nil {
		if next > math.MaxUint64-uint64(f.Count) {
			return 0, fmt.Errorf("the stream's arrival indices are exhausted (at %d)", next)
		}
		f.First = next + 1
		return next + uint64(f.Count), nil
	}
	consecutive := true
	for i := range f.Count {
		idx := f.Index(i) // f.First+i wraps to 0 past the top of the index space
		if idx <= next {
			return 0, fmt.Errorf("index %d at point %d does not advance the stream (at %d)", idx, i, next)
		}
		consecutive = consecutive && (i == 0 || idx == next+1)
		next = idx
	}
	if consecutive {
		f.First, f.Indices = f.Index(0), nil
	}
	return next, nil
}

// apply is the one path by which a live ingest batch reaches a stream's
// sampler, called only by admit (with qmu held) and the shard worker.
// Under the sampler lock it applies the batch, journals it (so journal
// order is apply order, and a checkpoint's journal cut — also under the
// sampler lock — cleanly separates pre- from post-snapshot batches) and
// invalidates the snapshot cache. It returns the stream position after
// the batch and how many of its points were applied; b.pts then holds the
// batch's rows.
func (s *Server) apply(ms *managedStream, b *batchBuf) (processed uint64, n int, err error) {
	ms.sm.Update(func(sm core.Sampler) {
		// applyBatch's clock check leaves no refusal for mid-batch; should
		// one happen, the applied prefix is journaled and reported.
		if b.pts, n, err = applyBatch(sm, &b.f, b.pts); err != nil && n > 0 {
			err = fmt.Errorf("point %d: %w (the %d points before it were applied)", n, err, n)
		}
		if s.durable != nil {
			s.appendJournal(ms.name, &b.f, n)
		}
		processed = sm.Processed()
	})
	return processed, n, err
}

// checkClock refuses a batch that would run a time-decay clock backwards:
// timestamps must be non-decreasing and no older than the clock, and a
// point without one advances the clock by one unit.
func checkClock(clock float64, f *wire.Frame) error {
	for i := range f.Count {
		if f.HasTS == nil || !f.HasTS[i] {
			clock++
			continue
		}
		if ts := f.TS[i]; ts < clock {
			return fmt.Errorf("point %d: timestamp %v precedes the stream clock %v", i, ts, clock)
		}
		clock = f.TS[i]
	}
	return nil
}

// countIngest records the ingest metrics of an accepted batch of n points,
// for every ingest path.
func (s *Server) countIngest(name string, n int) {
	s.ingest.With(name).Add(uint64(n))
	s.batchSize.Observe(float64(n))
}

// closeShard marks the stream closed and shuts its ingest lane down, if it
// has one. Safe against concurrent ingest: the closed flag and the close
// happen under ms.qmu, and admit checks the flag under the same lock.
func closeShard(ms *managedStream) {
	ms.qmu.Lock()
	defer ms.qmu.Unlock()
	if ms.closed {
		return
	}
	ms.closed = true
	if ms.shard != nil {
		close(ms.shard.ch)
	}
}

// Close shuts down the server's background work: every stream's ingest
// queue is closed and drained (points already accepted with 202 are
// applied; new ingest requests receive 503), and when durability is
// enabled the checkpointer stops, a final checkpoint of every stream is
// cut — leaving empty journals behind it — and the journals are closed.
// Safe to call when async ingest is disabled and safe to call more than
// once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		// Fail readiness first so load balancers and federation
		// coordinators stop routing here while the queues drain.
		s.ready.Store(false)
		// No install or delete can reserve a name from here on; wait out
		// those that did before the store they write to closes.
		s.reg.Close()
		for _, ms := range s.streamList() {
			closeShard(ms)
		}
		s.ingestWG.Wait()
		// Stop every background loop before the final checkpoint, so the
		// shutdown cut is not raced by a checkpoint pass or a compaction.
		close(s.stop)
		s.loops.Wait()
		if s.durable != nil {
			// Every queue is drained, so this checkpoint captures every
			// acknowledged point; the rotation inside it leaves each
			// stream's active journal empty.
			s.checkpointAll(true)
			if err := s.durable.Close(); err != nil && s.log != nil {
				s.log.Warn("closing durability store", "error", err)
			}
		}
	})
}

// collectIngest exports the async pipeline's scrape-time state: per-stream
// queue depth (batches) and pending points, the configured queue capacity,
// and how many workers are applying a batch right now.
func (s *Server) collectIngest() []obs.Family {
	if s.ingestWorkers == 0 {
		return nil
	}
	depth := obs.Family{Name: "biasedres_ingest_queue_depth", Type: "gauge",
		Help: "Batches waiting in the stream's ingest queue."}
	pendPts := obs.Family{Name: "biasedres_ingest_pending_points", Type: "gauge",
		Help: "Points accepted (202) but not yet applied to the stream's sampler."}
	for _, ms := range s.streamList() {
		name := ms.name
		// The scrape runs concurrently with enqueues, deletion, and Close,
		// all of which mutate the queue state under qmu. Reading shard and
		// the (depth, pending) pair under the same lock keeps the sample
		// coherent — pending points always have a matching queue view — and
		// synchronizes with closeShard instead of racing it.
		ms.qmu.Lock()
		shard := ms.shard
		var d, pend float64
		if shard != nil {
			d = float64(len(shard.ch))
			pend = float64(ms.pending.Load())
		}
		ms.qmu.Unlock()
		if shard == nil {
			continue
		}
		label := []obs.Label{{Key: "stream", Value: name}}
		depth.Samples = append(depth.Samples, obs.Sample{Labels: label, Value: d})
		pendPts.Samples = append(pendPts.Samples, obs.Sample{Labels: label, Value: pend})
	}
	out := []obs.Family{
		{Name: "biasedres_ingest_queue_capacity_batches", Type: "gauge",
			Help:    "Configured per-stream ingest queue depth (-ingest-queue).",
			Samples: []obs.Sample{{Value: float64(s.ingestQueue)}}},
		{Name: "biasedres_ingest_workers_busy", Type: "gauge",
			Help:    "Ingest workers currently applying a batch (bounded by -ingest-workers).",
			Samples: []obs.Sample{{Value: float64(len(s.ingestSem))}}},
	}
	if len(depth.Samples) > 0 {
		out = append(out, depth, pendPts)
	}
	return out
}
