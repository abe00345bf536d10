package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"

	"biasedres/internal/obs"
)

// Sink consumes decoded frames. The server side implements it; the
// listener owns transport, framing and replies, the sink owns semantics
// (stream lookup, validation, enqueue/apply, backpressure decisions).
//
// The *Frame and its slices — including f.Name — are only valid for the
// duration of the call, which may modify them (Check does); the listener
// reuses them for the next frame.
// IngestFrame must be safe for concurrent calls from different
// connections (each connection is served by its own goroutine).
type Sink interface {
	IngestFrame(f *Frame) Reply
}

// DefaultMaxFrameBytes caps a frame body unless WithMaxFrameBytes says
// otherwise; matches the HTTP server's default request body cap.
const DefaultMaxFrameBytes = 64 << 20

// Listener serves the binary ingest protocol on a net.Listener, decoding
// frames into per-connection reusable buffers and handing them to a Sink.
type Listener struct {
	sink     Sink
	log      *slog.Logger
	maxFrame int

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// metrics (nil-safe: only set when WithMetrics was given)
	connsGauge   *obs.Gauge
	connsTotal   *obs.Counter
	frames       *obs.Counter
	nacks        *obs.Counter
	decodeErrors *obs.Counter
	bytesRead    *obs.Counter
}

// ListenerOption configures a Listener.
type ListenerOption func(*Listener)

// WithLogger attaches a structured logger for connection-level events.
func WithLogger(log *slog.Logger) ListenerOption {
	return func(l *Listener) { l.log = log }
}

// WithMaxFrameBytes caps the accepted frame body size. Frames declaring a
// larger body are rejected with StatusError and the connection is closed.
func WithMaxFrameBytes(n int) ListenerOption {
	return func(l *Listener) {
		if n > 0 {
			l.maxFrame = n
		}
	}
}

// WithMetrics registers biasedres_wire_* instruments on reg: open and
// total connections, frames, NACKs, decode errors and bytes read.
func WithMetrics(reg *obs.Registry) ListenerOption {
	return func(l *Listener) {
		l.connsGauge = reg.Gauge("biasedres_wire_connections",
			"Open binary wire protocol connections.").With()
		l.connsTotal = reg.Counter("biasedres_wire_connections_total",
			"Binary wire protocol connections accepted since start.").With()
		l.frames = reg.Counter("biasedres_wire_frames_total",
			"Binary wire protocol frames decoded and handed to the ingest sink.").With()
		l.nacks = reg.Counter("biasedres_wire_nacks_total",
			"Wire frames rejected with a backpressure NACK.").With()
		l.decodeErrors = reg.Counter("biasedres_wire_decode_errors_total",
			"Wire frames rejected as malformed (connection closed after each).").With()
		l.bytesRead = reg.Counter("biasedres_wire_bytes_total",
			"Bytes read off binary wire protocol connections.").With()
	}
}

// NewListener builds a Listener serving sink. Call Serve to accept.
func NewListener(sink Sink, opts ...ListenerOption) *Listener {
	l := &Listener{
		sink:     sink,
		maxFrame: DefaultMaxFrameBytes,
		conns:    make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Serve accepts connections on lis until Close. Each connection gets a
// goroutine with its own decode buffers. Serve returns after Close, or
// with the accept error that stopped it.
func (l *Listener) Serve(lis net.Listener) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		lis.Close()
		return errors.New("wire: listener closed")
	}
	l.lis = lis
	l.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !l.track(conn) {
			conn.Close()
			return nil
		}
		if l.connsTotal != nil {
			l.connsTotal.Inc()
			l.connsGauge.Add(1)
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer l.untrack(conn)
			l.serveConn(conn)
		}()
	}
}

// track registers a live connection; false means the listener is closed.
func (l *Listener) track(conn net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.conns[conn] = struct{}{}
	return true
}

// untrack closes and forgets a connection.
func (l *Listener) untrack(conn net.Conn) {
	conn.Close()
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
	if l.connsGauge != nil {
		l.connsGauge.Add(-1)
	}
}

// Close stops accepting, closes every open connection and waits for the
// connection goroutines to finish. Frames already handed to the sink have
// completed when Close returns; frames in flight on the network are lost
// without an ACK, which the client-side retry contract covers.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	lis := l.lis
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
	return err
}

// serveConn is the per-connection loop: read header, read body, decode
// into the connection's reusable Frame, hand to the sink, write the reply.
// All buffers live for the connection, so the steady state allocates
// nothing per frame. Any framing error ends the connection after a best-
// effort error reply — once alignment is suspect, resyncing is hopeless.
func (l *Listener) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 4<<10)
	var (
		head  [HeaderLen]byte
		body  []byte
		reply []byte
		frame Frame
	)
	for {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && l.log != nil {
				l.log.Warn("wire: reading frame header", "remote", conn.RemoteAddr(), "error", err)
			}
			return
		}
		h, err := ParseHeader(head[:])
		if err == nil && h.BodyLen > l.maxFrame {
			err = fmt.Errorf("wire: frame body %d bytes exceeds limit %d", h.BodyLen, l.maxFrame)
		}
		if err != nil {
			l.fail(conn, bw, err)
			return
		}
		if cap(body) < h.BodyLen {
			body = make([]byte, h.BodyLen)
		}
		body = body[:h.BodyLen]
		if _, err := io.ReadFull(br, body); err != nil {
			l.fail(conn, bw, fmt.Errorf("wire: reading frame body: %w", err))
			return
		}
		if l.bytesRead != nil {
			l.bytesRead.Add(uint64(HeaderLen + h.BodyLen))
		}
		if err := h.DecodeBody(body, &frame); err != nil {
			l.fail(conn, bw, err)
			return
		}
		r := l.sink.IngestFrame(&frame)
		if l.frames != nil {
			l.frames.Inc()
			if r.Status == StatusBackpressure {
				l.nacks.Inc()
			}
		}
		reply = AppendReply(reply[:0], r)
		if _, err := bw.Write(reply); err != nil {
			return
		}
		// Flush per frame unless more input is already buffered — pipelined
		// clients coalesce reply flushes, request/reply clients see no delay.
		if br.Buffered() < HeaderLen {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// fail counts a framing error, sends a best-effort error reply and lets
// the caller close the connection.
func (l *Listener) fail(conn net.Conn, bw *bufio.Writer, err error) {
	if l.decodeErrors != nil {
		l.decodeErrors.Inc()
	}
	if l.log != nil {
		l.log.Warn("wire: closing connection on framing error",
			"remote", conn.RemoteAddr(), "error", err)
	}
	bw.Write(AppendReply(nil, Errorf("%s", err.Error())))
	bw.Flush()
}
