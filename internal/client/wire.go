package client

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"biasedres/internal/wire"
)

// WireConn is the binary-protocol counterpart of Client.Push: a
// persistent TCP connection to a reservoird wire listener (-wire-addr),
// pushing point batches as binary frames instead of JSON POSTs. One
// WireConn can feed many streams — every frame names its target. It
// buffers no points: Batcher is the client-side buffer, and a producer
// that wants one over the wire batches its points before Push. Push packs
// and encodes each frame into buffers the WireConn reuses, so steady
// pushes allocate nothing, and the caller may reuse its points once Push
// returns.
//
// The backpressure contract matches HTTP exactly: a NACK reply means the
// server consumed nothing, and the WireConn waits the server's retry
// hint (or its own jittered exponential backoff) and resends the whole
// frame, up to MaxRetries attempts; a frame still refused after them
// fails with HTTP's backpressure error, an *APIError with StatusCode 429
// and the last hint as RetryAfter. A frame refused whole — by the server
// (an error reply) or before sending (a point the server would refuse) —
// fails with *WireError without retrying: nothing of it was applied.
// Frames carry everything a JSON point does: labels, weights and
// timestamps.
//
// On a transport failure the WireConn redials and resends the in-flight
// frame once. A frame whose ACK was lost in transit may by then have
// been applied, so delivery is at-least-once across reconnects; clients
// that need exactly-once across connection loss should sequence frames
// with explicit arrival indices, which the server refuses to apply twice.
//
// A WireConn is safe for concurrent use; frames are serialized on the
// connection.
type WireConn struct {
	addr string
	cfg  WireConnConfig

	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	f      wire.Frame // reusable columns of the frame being sent
	enc    []byte     // reusable frame encode buffer
	rep    []byte     // reusable reply read buffer
	closed bool
}

// maxRetainedFrame caps, in bytes, the packing and encode buffers a
// WireConn keeps between pushes; one oversized push does not pin its
// buffers for the connection's life.
const maxRetainedFrame = 1 << 20

// WireConnConfig tunes a WireConn. Zero values pick the defaults.
type WireConnConfig struct {
	// MaxRetries bounds resends of one frame after NACK backpressure
	// (default 8).
	MaxRetries int
	// RetryBackoff is the base wait between resends when the NACK carries
	// no retry hint (default 50ms); grown exponentially per attempt and
	// jittered exactly like Batcher.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the exponential growth (default 2s).
	MaxRetryBackoff time.Duration
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
}

func (cfg WireConnConfig) withDefaults() WireConnConfig {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.MaxRetryBackoff <= 0 {
		cfg.MaxRetryBackoff = 2 * time.Second
	}
	if cfg.MaxRetryBackoff < cfg.RetryBackoff {
		cfg.MaxRetryBackoff = cfg.RetryBackoff
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	return cfg
}

// retryWait shares Batcher's backoff shape for hint-less NACKs.
func (cfg WireConnConfig) retryWait(attempt int) time.Duration {
	b := BatcherConfig{RetryBackoff: cfg.RetryBackoff, MaxRetryBackoff: cfg.MaxRetryBackoff}
	return b.retryWait(attempt)
}

// WireError is the refusal of a whole frame, by the wire listener
// (unknown stream, dimension mismatch, malformed frame) or by WireConn
// before sending (a point the server would refuse, a closed WireConn).
// Nothing of the frame was applied, and resending it cannot succeed.
type WireError struct {
	Msg string
}

// Error implements error.
func (e *WireError) Error() string { return "wire: frame refused: " + e.Msg }

// DialWire connects to a reservoird wire listener at addr.
func DialWire(addr string, cfg WireConnConfig) (*WireConn, error) {
	w := &WireConn{addr: addr, cfg: cfg.withDefaults()}
	if err := w.redial(context.Background()); err != nil {
		return nil, err
	}
	return w, nil
}

// redial (re)establishes the connection; a canceled ctx aborts the dial
// immediately, not after DialTimeout. Called with w.mu held, or before
// w is shared.
func (w *WireConn) redial(ctx context.Context) error {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	d := net.Dialer{Timeout: w.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", w.addr)
	if err != nil {
		return fmt.Errorf("wire: dialing %s: %w", w.addr, err)
	}
	w.conn = conn
	if w.br == nil {
		w.br = bufio.NewReaderSize(conn, 4<<10)
		w.bw = bufio.NewWriterSize(conn, 64<<10)
	} else {
		w.br.Reset(conn)
		w.bw.Reset(conn)
	}
	return nil
}

// Push sends one batch for the named stream as one frame. It blocks
// until the server ACKs the frame (retrying through backpressure) or
// refuses it.
func (w *WireConn) Push(stream string, points []Point) error {
	return w.PushContext(context.Background(), stream, points)
}

// PushContext is Push bounded by ctx: cancellation aborts the dial, cuts
// short a retry backoff, and unblocks a round trip stuck on a silent
// (blackholed) connection by poisoning its deadline. After a ctx-aborted
// round trip the frame may or may not have been applied — the same
// at-least-once window as a reconnect.
func (w *WireConn) PushContext(ctx context.Context, stream string, points []Point) error {
	return w.push(ctx, stream, len(points), func(f *wire.Frame) { f.SetPoints(points) })
}

// PushFrameContext is PushContext for a batch already in frame form; f
// is only read, so concurrent pushes may share it, and its Name is
// ignored.
func (w *WireConn) PushFrameContext(ctx context.Context, stream string, f *wire.Frame) error {
	return w.push(ctx, stream, f.Count, func(dst *wire.Frame) { dst.CopyFrom(f) })
}

// push fills the WireConn's frame, reused unless it outgrew
// maxRetainedFrame, with a batch of n points and sends it. A batch wire's
// Check refuses is refused here with the server's message, sending nothing.
func (w *WireConn) push(ctx context.Context, stream string, n int, fill func(*wire.Frame)) error {
	if n == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWireConnClosed
	}
	f := &w.f
	if 8*(cap(f.Values)+cap(f.Labels)+cap(f.Weights)+cap(f.TS))+cap(f.HasTS) > maxRetainedFrame {
		*f = wire.Frame{}
	}
	fill(f)
	if err := f.Check(); err != nil {
		return &WireError{Msg: err.Error()}
	}
	return w.sendCtxLocked(ctx, stream)
}

// ErrWireConnClosed is returned by Push after Close.
var ErrWireConnClosed = &WireError{Msg: "connection closed by Close"}

// Close closes the connection.
func (w *WireConn) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	return nil
}

// sendCtxLocked encodes w.f and runs the send/reply/retry loop, honoring
// ctx at every blocking point: the dial, the round trip (a cancellation
// poisons the connection deadline, so even a reply that never comes —
// blackholed network — unblocks immediately), and the NACK backoff wait.
// Called with w.mu held.
func (w *WireConn) sendCtxLocked(ctx context.Context, stream string) error {
	if cap(w.enc) > maxRetainedFrame {
		w.enc = nil
	}
	var err error
	w.enc, err = wire.AppendFrame(w.enc[:0], stream, &w.f)
	if err != nil {
		return &WireError{Msg: err.Error()}
	}
	var lastNack wire.Reply
	for attempt := 0; attempt < w.cfg.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("wire: send aborted: %w", err)
		}
		r, err := w.roundTripLocked(ctx)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("wire: send aborted: %w", cerr)
			}
			// Transport failure: redial once and resend this frame. If the
			// ACK (not the frame) was lost, the resend double-applies —
			// the documented at-least-once window.
			if rerr := w.redial(ctx); rerr != nil {
				return rerr
			}
			if r, err = w.roundTripLocked(ctx); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return fmt.Errorf("wire: send aborted: %w", cerr)
				}
				return fmt.Errorf("wire: resend after reconnect failed: %w", err)
			}
		}
		switch r.Status {
		case wire.StatusOK:
			return nil
		case wire.StatusBackpressure:
			lastNack = r
			wait := time.Duration(r.RetryMS) * time.Millisecond
			if wait <= 0 {
				wait = w.cfg.retryWait(attempt)
			}
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return fmt.Errorf("wire: send aborted during backoff: %w", ctx.Err())
			case <-timer.C:
			}
		default:
			return &WireError{Msg: r.Msg}
		}
	}
	return &APIError{
		StatusCode: http.StatusTooManyRequests,
		Message: fmt.Sprintf("wire: frame of %d points still backpressured after %d attempts (server hint %dms)",
			w.f.Count, w.cfg.MaxRetries, lastNack.RetryMS),
		RetryAfter: time.Duration(lastNack.RetryMS) * time.Millisecond,
	}
}

// roundTripLocked writes the encoded frame in w.enc and reads one reply.
// While the round trip is in flight a ctx cancellation (or deadline)
// fires a watcher that moves the connection deadline to now, failing the
// pending read/write; the poisoned connection is then discarded so a
// later attempt redials cleanly.
func (w *WireConn) roundTripLocked(ctx context.Context) (wire.Reply, error) {
	if w.conn == nil {
		return wire.Reply{}, io.ErrClosedPipe
	}
	if ctx.Done() != nil {
		conn := w.conn
		stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
		defer func() {
			if !stop() {
				// The watcher fired: the deadline is in the past, so no
				// future I/O on this connection can succeed. Drop it.
				conn.Close()
				if w.conn == conn {
					w.conn = nil
				}
			}
		}()
	}
	if _, err := w.bw.Write(w.enc); err != nil {
		return wire.Reply{}, err
	}
	if err := w.bw.Flush(); err != nil {
		return wire.Reply{}, err
	}
	if cap(w.rep) < wire.ReplyHeaderLen {
		w.rep = make([]byte, wire.ReplyHeaderLen, wire.ReplyHeaderLen+255)
	}
	w.rep = w.rep[:wire.ReplyHeaderLen]
	if _, err := io.ReadFull(w.br, w.rep); err != nil {
		return wire.Reply{}, err
	}
	if msgLen := int(w.rep[1]); msgLen > 0 {
		w.rep = w.rep[:wire.ReplyHeaderLen+msgLen]
		if _, err := io.ReadFull(w.br, w.rep[wire.ReplyHeaderLen:]); err != nil {
			return wire.Reply{}, err
		}
	}
	r, _, err := wire.DecodeReply(w.rep)
	return r, err
}
