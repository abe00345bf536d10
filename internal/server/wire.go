package server

import (
	"net/http"

	"biasedres/internal/wire"
)

// IngestFrame implements wire.Sink: the binary ingest path. It looks the
// stream up, builds the batch and hands it to admit, the admission step
// it shares with HTTP ingest. The outcome maps onto the HTTP statuses: a
// full ingest queue (429) is StatusBackpressure with the same 1s retry
// hint, consuming nothing; every other refusal — unknown stream, closed
// stream, bad dimensionality, non-finite values, indices that do not
// advance the stream, timestamps behind a time-decay clock — is
// StatusError (resending cannot succeed here).
func (s *Server) IngestFrame(f *wire.Frame) wire.Reply {
	// Compiles to an allocation-free map probe; the frame's name bytes
	// never escape into a string unless a reply message needs them.
	s.mu.RLock()
	ms, ok := s.streams[string(f.Name)]
	s.mu.RUnlock()
	if !ok {
		return wire.Errorf("stream %q not found", f.Name)
	}
	a := s.admit(string(f.Name), ms, buildWireBatch(f), f.Indices != nil || f.First != 0)
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
// batch outlives this call. The points slice the buffer's copy of the
// values column. A steady stream of frames allocates nothing here.
func buildWireBatch(f *wire.Frame) *batchBuf {
	b := getBatch()
	b.points(f.Count, len(f.Values))
	src := *f
	src.Values = b.values(f.Values)
	b.pts = src.Points(b.pts)
	copy(b.ts, f.TS)
	copy(b.has, f.HasTS)
	return b
}
