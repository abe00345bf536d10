package wire

import (
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"biasedres/internal/obs"
)

// recordSink records frames and answers from a scripted reply queue
// (default Ack).
type recordSink struct {
	mu      sync.Mutex
	frames  []Frame
	replies []Reply
}

func (s *recordSink) IngestFrame(f *Frame) Reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Deep-copy: the listener reuses the frame's slices after we return.
	cp := *f
	cp.Name = append([]byte(nil), f.Name...)
	cp.Indices = slices.Clone(f.Indices)
	cp.Labels = slices.Clone(f.Labels)
	cp.Weights = slices.Clone(f.Weights)
	cp.TS, cp.HasTS = slices.Clone(f.TS), slices.Clone(f.HasTS)
	cp.Values = slices.Clone(f.Values)
	s.frames = append(s.frames, cp)
	if len(s.replies) > 0 {
		r := s.replies[0]
		s.replies = s.replies[1:]
		return r
	}
	return Ack(int64(f.Count))
}

// startListener serves sink on a loopback listener, returning its
// address and a cleanup-registered Listener.
func startListener(t *testing.T, sink Sink, opts ...ListenerOption) (*Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(sink, opts...)
	done := make(chan error, 1)
	go func() { done <- l.Serve(ln) }()
	t.Cleanup(func() {
		l.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return l, ln.Addr().String()
}

// readReply reads exactly one reply off conn.
func readReply(t *testing.T, conn net.Conn) Reply {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	head := make([]byte, ReplyHeaderLen)
	if _, err := io.ReadFull(conn, head); err != nil {
		t.Fatalf("reading reply header: %v", err)
	}
	buf := head
	if msgLen := int(head[1]); msgLen > 0 {
		msg := make([]byte, msgLen)
		if _, err := io.ReadFull(conn, msg); err != nil {
			t.Fatalf("reading reply message: %v", err)
		}
		buf = append(buf, msg...)
	}
	r, _, err := DecodeReply(buf)
	if err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	return r
}

func TestListenerServesFrames(t *testing.T) {
	sink := &recordSink{}
	reg := obs.NewRegistry()
	_, addr := startListener(t, sink, WithMetrics(reg))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Two frames back to back on one connection.
	buf, err := AppendFrame(nil, "alpha", testFrame(4, 2, false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	buf, err = AppendFrame(buf, "beta", testFrame(2, 3, true, false, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	if r := readReply(t, conn); r.Status != StatusOK || r.Pending != 4 {
		t.Fatalf("first reply = %+v", r)
	}
	if r := readReply(t, conn); r.Status != StatusOK || r.Pending != 2 {
		t.Fatalf("second reply = %+v", r)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.frames) != 2 {
		t.Fatalf("sink saw %d frames", len(sink.frames))
	}
	if string(sink.frames[0].Name) != "alpha" || string(sink.frames[1].Name) != "beta" {
		t.Fatalf("frame names = %q, %q", sink.frames[0].Name, sink.frames[1].Name)
	}
	if sink.frames[1].Indices[1] != 2 {
		t.Fatalf("explicit indices lost: %v", sink.frames[1].Indices)
	}

	exp := reg.Expose()
	for _, want := range []string{
		"biasedres_wire_connections 1",
		"biasedres_wire_connections_total 1",
		"biasedres_wire_frames_total 2",
		"biasedres_wire_decode_errors_total 0",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestListenerRefusesBRW1: a BRW1 frame from an older client, after a
// BRW2 frame on the same connection, gets an error reply naming BRW2, is
// counted as a decode error and closes the connection; only the BRW2
// frame reaches the sink.
func TestListenerRefusesBRW1(t *testing.T) {
	sink := &recordSink{}
	reg := obs.NewRegistry()
	_, addr := startListener(t, sink, WithMetrics(reg))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	v2, err := AppendFrame(nil, "fuzz", testFrame(2, 1, false, true, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(v2, corpusEntry(t, "valid-all-flags")...)); err != nil {
		t.Fatal(err)
	}
	if r := readReply(t, conn); r.Status != StatusOK {
		t.Fatalf("BRW2 reply = %+v", r)
	}
	if r := readReply(t, conn); r.Status != StatusError || !strings.Contains(r.Msg, "send BRW2") {
		t.Fatalf("BRW1 reply = %+v, want an error naming BRW2", r)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection still open after a BRW1 frame (read err %v)", err)
	}
	sink.mu.Lock()
	frames := len(sink.frames)
	sink.mu.Unlock()
	if frames != 1 {
		t.Fatalf("sink saw %d frames, want the BRW2 one only", frames)
	}
	exp := reg.Expose()
	for _, want := range []string{"biasedres_wire_frames_total 1", "biasedres_wire_decode_errors_total 1"} {
		if !strings.Contains(exp, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestListenerNackMetric(t *testing.T) {
	sink := &recordSink{replies: []Reply{Nack(250)}}
	reg := obs.NewRegistry()
	_, addr := startListener(t, sink, WithMetrics(reg))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf, _ := AppendFrame(nil, "s", testFrame(1, 1, false, false, false))
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	if r := readReply(t, conn); r.Status != StatusBackpressure || r.RetryMS != 250 {
		t.Fatalf("reply = %+v, want NACK 250ms", r)
	}
	if !strings.Contains(reg.Expose(), "biasedres_wire_nacks_total 1") {
		t.Error("NACK not counted")
	}
}

// TestListenerDecodeErrorClosesConn: garbage gets an error reply, then
// EOF — the connection cannot be trusted after a framing error.
func TestListenerDecodeErrorClosesConn(t *testing.T) {
	sink := &recordSink{}
	reg := obs.NewRegistry()
	_, addr := startListener(t, sink, WithMetrics(reg))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, HeaderLen)); err != nil { // zero magic
		t.Fatal(err)
	}
	r := readReply(t, conn)
	if r.Status != StatusError || !strings.Contains(r.Msg, "bad magic") {
		t.Fatalf("reply = %+v, want bad-magic error", r)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection still open after framing error (read err %v)", err)
	}
	sink.mu.Lock()
	frames := len(sink.frames)
	sink.mu.Unlock()
	if frames != 0 {
		t.Fatalf("sink saw %d frames from a malformed stream", frames)
	}
	if !strings.Contains(reg.Expose(), "biasedres_wire_decode_errors_total 1") {
		t.Error("decode error not counted")
	}
}

// TestListenerFrameLimit: a header declaring an over-limit body is
// refused before any body bytes are read.
func TestListenerFrameLimit(t *testing.T) {
	sink := &recordSink{}
	_, addr := startListener(t, sink, WithMaxFrameBytes(64))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf, _ := AppendFrame(nil, "s", testFrame(16, 4, false, false, false))
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	r := readReply(t, conn)
	if r.Status != StatusError || !strings.Contains(r.Msg, "exceeds limit") {
		t.Fatalf("reply = %+v, want frame-limit error", r)
	}
}

// TestListenerClose: Close terminates open connections and Serve returns.
func TestListenerClose(t *testing.T) {
	sink := &recordSink{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(sink)
	done := make(chan error, 1)
	go func() { done <- l.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Prove the connection is live before Close.
	buf, _ := AppendFrame(nil, "s", testFrame(1, 1, false, false, false))
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	readReply(t, conn)

	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection still open after listener Close")
	}
}
