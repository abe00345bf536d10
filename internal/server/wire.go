package server

import (
	"net/http"

	"biasedres/internal/stream"
	"biasedres/internal/wire"
)

// IngestFrame implements wire.Sink: the binary ingest path. It looks the
// stream up, builds the batch and hands it to admit, the admission step
// it shares with HTTP ingest. The outcome maps onto the HTTP statuses: a
// full ingest queue (429) is StatusBackpressure with the same 1s retry
// hint, consuming nothing; every other refusal — unknown stream, closed
// stream, bad dimensionality, non-finite values, indices that do not
// advance the stream — is StatusError (resending cannot succeed here).
// Wire frames carry no timestamps, so time-decay streams advance their
// clock one unit per point.
func (s *Server) IngestFrame(f *wire.Frame) wire.Reply {
	// Compiles to an allocation-free map probe; the frame's name bytes
	// never escape into a string unless a reply message needs them.
	s.mu.RLock()
	ms, ok := s.streams[string(f.Name)]
	s.mu.RUnlock()
	if !ok {
		return wire.Errorf("stream %q not found", f.Name)
	}
	a := s.admit(string(f.Name), ms, buildWireBatch(f), nil, f.Indices != nil)
	switch {
	case a.status == http.StatusTooManyRequests:
		return wire.Nack(1000)
	case a.err != nil:
		return wire.Errorf("%v", a.err)
	}
	return wire.Ack(a.pending)
}

// buildWireBatch copies a decoded frame into a pooled batch buffer: the
// listener reuses the frame's slices for its next frame, while a queued
// batch outlives this call. The points slice the buffer's one values
// backing; samplers copy the values of the points they retain, so the
// buffer is reused once admit or the shard worker releases it, and a
// steady stream of frames allocates nothing here. Indices are copied when
// the frame carries them; admit sequences the rest.
func buildWireBatch(f *wire.Frame) *batchBuf {
	b := getBatch()
	b.vals = append(b.vals[:0], f.Values...)
	for i := range b.points(f.Count) {
		p := &b.pts[i]
		*p = stream.Point{Values: b.vals[i*f.Dim : (i+1)*f.Dim : (i+1)*f.Dim], Label: -1, Weight: 1}
		if f.Indices != nil {
			p.Index = f.Indices[i]
		}
		if f.Labels != nil {
			p.Label = int(f.Labels[i])
		}
		if f.Weights != nil && f.Weights[i] != 0 {
			p.Weight = f.Weights[i]
		}
	}
	return b
}
