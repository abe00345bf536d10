package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"biasedres/internal/core"
	"biasedres/internal/obs"
	"biasedres/internal/stream"
)

// ingestBatchBuckets are the batch-size histogram bounds: powers of two
// from a single point up to the largest batch a 64 MiB body can plausibly
// carry.
var ingestBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// ingestShard is the per-stream async ingest lane: a bounded queue of
// pre-validated, index-assigned batches drained by one worker goroutine.
// One worker per stream keeps arrival order — the samplers require points
// in order — while different streams ingest fully in parallel.
type ingestShard struct {
	ch chan []stream.Point
}

// startIngestShard attaches an ingest lane to ms and starts its worker.
// Called with the stream registered; the worker runs until the shard's
// channel is closed (stream deletion or server Close).
func (s *Server) startIngestShard(name string, ms *managedStream) {
	ms.shard = &ingestShard{ch: make(chan []stream.Point, s.ingestQueue)}
	s.ingestWG.Add(1)
	go s.runIngestShard(name, ms)
}

// runIngestShard drains one stream's queue. The global worker semaphore
// bounds how many shards apply batches simultaneously (the -ingest-workers
// flag), so thousands of idle streams cost goroutines but not CPU
// contention. Model scoring runs inside the semaphore slot too:
// classification is CPU work and must respect -ingest-workers.
func (s *Server) runIngestShard(name string, ms *managedStream) {
	defer s.ingestWG.Done()
	for batch := range ms.shard.ch {
		s.ingestSem <- struct{}{}
		s.apply(name, ms, batch, nil)
		<-s.ingestSem
		ms.pending.Add(-int64(len(batch)))
		s.applied.With(name).Inc()
	}
}

// apply is the one path by which a live ingest batch reaches a stream's
// sampler, for HTTP, wire and sharded ingest alike: under the sampler lock
// it runs core.AddBatch, frames the batch onto the journal (so journal
// order is apply order, and a checkpoint's journal cut — also under the
// sampler lock — cleanly separates pre- from post-snapshot ops) and
// invalidates the snapshot cache. release, when non-nil, runs next: the
// synchronous paths pass their qmu unlock, so the model scoring that
// follows never holds up admission. It returns the stream position after
// the batch.
func (s *Server) apply(name string, ms *managedStream, batch []stream.Point, release func()) uint64 {
	var processed uint64
	ms.sm.Update(func(sm core.Sampler) {
		core.AddBatch(sm, batch)
		if s.durable != nil {
			ms.jops = journalOps(ms.jops[:0], batch)
			s.appendJournal(name, ms.jops)
		}
		processed = sm.Processed()
	})
	if release != nil {
		release()
	}
	s.observeModel(ms, batch)
	return processed
}

// countIngest records the ingest metrics of an accepted batch of n points,
// for every ingest path.
func (s *Server) countIngest(name string, n int) {
	s.ingest.With(name).Add(uint64(n))
	s.batchSize.Observe(float64(n))
}

// closeShard marks the stream closed and shuts its ingest lane down. Safe
// against concurrent enqueues: both the closed flag and the close happen
// under ms.qmu, and enqueues check the flag under the same lock.
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
		for _, ns := range s.streamList() {
			closeShard(ns.ms)
		}
		s.ingestWG.Wait()
		if s.retStop != nil {
			// Stop the retention sweep before the final checkpoint so the
			// shutdown cut is not raced by compactions.
			close(s.retStop)
			s.retWG.Wait()
		}
		if s.durable != nil {
			close(s.durStop)
			s.durWG.Wait()
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

// enqueue hands a validated, index-assigned batch to the stream's ingest
// lane: the one enqueue path of HTTP and wire ingest. Called with ms.qmu
// held. next and dim commit only when the batch is queued, so a rejected
// batch consumes nothing — no indices, no sampler state: the "no partial
// application" half of the backpressure contract. A full queue counts a
// rejection and reports ok=false.
func (s *Server) enqueue(name string, ms *managedStream, batch []stream.Point, next uint64, dim int) (pending int64, ok bool) {
	select {
	case ms.shard.ch <- batch:
		ms.next, ms.dim = next, dim
		return ms.pending.Add(int64(len(batch))), true
	default:
		s.rejected.With(name).Inc()
		return 0, false
	}
}

// handleIngestAsync is the sharded fast path of POST /streams/{name}/points:
// validate, assign indices, enqueue, return 202. Only the bookkeeping lock
// qmu is held for the queue handoff — applying the batch happens on the
// stream's worker under the sampler lock — so handlers never contend on
// sampler work. A full queue is backpressure: 429 with a Retry-After hint
// and nothing consumed. Called with ms.qmu held; releases it.
func (s *Server) handleIngestAsync(w http.ResponseWriter, name string, ms *managedStream, req IngestRequest, dim int) {
	if ms.closed {
		ms.qmu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "stream %q is shutting down", name)
		return
	}
	batch, next := ingestBatch(req.Points, ms.next)
	pending, queued := s.enqueue(name, ms, batch, next, dim)
	ms.qmu.Unlock()
	if !queued {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"ingest queue for stream %q is full (%d batches); retry later", name, s.ingestQueue)
		return
	}
	s.countIngest(name, len(req.Points))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Biasedres-Pending-Points", strconv.FormatInt(pending, 10))
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]any{"queued": len(req.Points), "pending": pending})
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
	for _, ns := range s.streamList() {
		name, ms := ns.name, ns.ms
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
