package server

import (
	"biasedres/internal/stream"
	"biasedres/internal/wire"
)

// IngestFrame implements wire.Sink: the binary ingest path. It is the
// wire twin of handleIngest — same validation, same backpressure
// contract, same sampler path — minus HTTP parsing and JSON decode. The
// frame's slices are owned by the caller and reused, so the batch handed
// to the sampler is built from fresh memory: one []stream.Point and one
// contiguous float64 backing per frame, never one allocation per point.
//
// Reply mapping mirrors the HTTP statuses: unknown stream, bad
// dimensionality, bad indices and a closed stream are StatusError
// (resending cannot succeed here); a full ingest queue is
// StatusBackpressure with the same 1s retry hint as the 429 path, and
// consumes nothing.
func (s *Server) IngestFrame(f *wire.Frame) wire.Reply {
	// Compiles to an allocation-free map probe; the frame's name bytes
	// never escape into a string unless a reply message needs them.
	s.mu.RLock()
	ms, ok := s.streams[string(f.Name)]
	s.mu.RUnlock()
	if !ok {
		return wire.Errorf("stream %q not found", f.Name)
	}

	ms.qmu.Lock()
	if ms.closed {
		ms.qmu.Unlock()
		return wire.Errorf("stream %q is shutting down", f.Name)
	}
	// The decoder already guarantees uniform dimensionality within a frame
	// (values are packed count×dim); only the stream's committed dimension
	// needs checking, and it commits on success exactly like HTTP ingest.
	dim := ms.dim
	if dim == 0 {
		dim = f.Dim
	} else if f.Dim != dim {
		ms.qmu.Unlock()
		return wire.Errorf("frame has dim %d, stream has %d", f.Dim, dim)
	}
	// Explicit arrival indices must extend the stream's order: strictly
	// increasing and past every index already assigned. Checked before
	// anything is consumed so a rejected frame leaves no trace.
	if f.Indices != nil {
		prev := ms.next
		for i, idx := range f.Indices {
			if idx <= prev {
				ms.qmu.Unlock()
				return wire.Errorf("index %d at point %d does not advance the stream (at %d)", idx, i, prev)
			}
			prev = idx
		}
	}

	batch := buildWireBatch(f)
	next := ms.next
	if f.Indices != nil {
		next = f.Indices[len(f.Indices)-1]
	} else {
		// Server-side sequencing: indices are provisional until the batch
		// is accepted; ms.next only commits on success, so a rejected
		// frame consumes nothing.
		next = sequenceWireBatch(batch, ms.next)
	}

	name := string(f.Name)
	if ms.shard != nil {
		// Async lane: hand the batch to the stream's worker under qmu only.
		// A full queue is backpressure — NACK with the HTTP Retry-After
		// hint, nothing consumed.
		pending, queued := s.enqueue(name, ms, batch, next, dim)
		ms.qmu.Unlock()
		if !queued {
			return wire.Nack(1000)
		}
		s.countIngest(name, f.Count)
		return wire.Ack(pending)
	}
	// Synchronous apply. Wire frames carry no timestamps, so time-decay
	// streams advance their clock one unit per point (the TS-less HTTP
	// semantics) — AddBatch degrades to in-order Adds for them.
	ms.next, ms.dim = next, dim
	s.apply(name, ms, batch, ms.qmu.Unlock)
	s.countIngest(name, f.Count)
	return wire.Ack(0)
}

// buildWireBatch converts a decoded frame into the batch handed to the
// sampler. Samplers retain their points, so the batch cannot alias the
// frame's reusable slices: the points share one fresh contiguous values
// backing, two allocations total regardless of point count. Called with
// ms.qmu held (it reads nothing of ms; the caller sequences indices).
func buildWireBatch(f *wire.Frame) []stream.Point {
	backing := make([]float64, len(f.Values))
	copy(backing, f.Values)
	batch := make([]stream.Point, f.Count)
	for i := range batch {
		p := &batch[i]
		p.Values = backing[i*f.Dim : (i+1)*f.Dim : (i+1)*f.Dim]
		if f.Indices != nil {
			p.Index = f.Indices[i]
		}
		p.Label = -1
		if f.Labels != nil {
			p.Label = int(f.Labels[i])
		}
		p.Weight = 1
		if f.Weights != nil && f.Weights[i] != 0 {
			p.Weight = f.Weights[i]
		}
	}
	return batch
}

// sequenceWireBatch assigns server-side arrival indices when the frame
// carried none. Split from buildWireBatch because ms.next must only
// advance on success; callers invoke it just before committing.
func sequenceWireBatch(batch []stream.Point, next uint64) uint64 {
	for i := range batch {
		next++
		batch[i].Index = next
	}
	return next
}
