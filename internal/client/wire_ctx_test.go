package client

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"biasedres/internal/faulty"
	"biasedres/internal/wire"
)

// ackSink ACKs every frame; nackN NACKs the first n frames first.
type ackSink struct {
	nackN  atomic.Int64
	frames atomic.Int64
}

func (s *ackSink) IngestFrame(*wire.Frame) wire.Reply {
	s.frames.Add(1)
	if s.nackN.Add(-1) >= 0 {
		return wire.Nack(0)
	}
	return wire.Ack(0)
}

// startSinkListener serves sink on a loopback wire listener.
func startSinkListener(t *testing.T, sink wire.Sink) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl := wire.NewListener(sink)
	go wl.Serve(ln)
	t.Cleanup(func() { wl.Close() })
	return ln.Addr().String()
}

func wirePoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Values: []float64{float64(i)}}
	}
	return pts
}

// TestWireConnPushContextHappyPath: a live context changes nothing.
func TestWireConnPushContextHappyPath(t *testing.T) {
	sink := &ackSink{}
	addr := startSinkListener(t, sink)
	wc, err := DialWire(addr, WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if err := wc.PushContext(context.Background(), "s", wirePoints(10)); err != nil {
		t.Fatalf("PushContext: %v", err)
	}
	if sink.frames.Load() != 1 {
		t.Fatalf("sink saw %d frames, want 1", sink.frames.Load())
	}
}

// TestWireConnCtxCancelsDial: dialing a blackholed address must return on
// ctx cancellation, not hang for DialTimeout.
func TestWireConnCtxCancelsDial(t *testing.T) {
	sink := &ackSink{}
	addr := startSinkListener(t, sink)
	p, err := faulty.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	wc, err := DialWire(p.Addr(), WireConnConfig{DialTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	// Kill the live connection and blackhole the path: the next push hits
	// a dead conn, and the reconnect dial completes (TCP accept still
	// works at the proxy) but the round trip never gets a reply.
	p.SetMode(faulty.Blackhole)
	p.KillConns()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = wc.PushContext(ctx, "s", wirePoints(5))
	if err == nil {
		t.Fatal("PushContext through blackhole succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx deadline", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("PushContext took %v; want prompt return on ctx expiry", d)
	}
}

// TestWireConnCtxUnblocksSilentConn: the reply never arrives on an
// established connection (mid-stream blackhole). Cancellation must
// poison the conn deadline and return promptly.
func TestWireConnCtxUnblocksSilentConn(t *testing.T) {
	sink := &ackSink{}
	addr := startSinkListener(t, sink)
	p, err := faulty.New(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	wc, err := DialWire(p.Addr(), WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	// Warm the connection, then silence it without closing it.
	if err := wc.PushContext(context.Background(), "s", wirePoints(3)); err != nil {
		t.Fatalf("warm-up push: %v", err)
	}
	p.SetMode(faulty.Blackhole)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = wc.PushContext(ctx, "s", wirePoints(3))
	if err == nil {
		t.Fatal("push over silenced connection succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx deadline", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("push took %v; want prompt return", d)
	}

	// The conn recovers once the fault clears: a later background push
	// redials and lands.
	p.SetMode(faulty.Pass)
	p.KillConns()
	if err := wc.PushContext(context.Background(), "s", wirePoints(3)); err != nil {
		t.Fatalf("push after recovery: %v", err)
	}
}

// TestWireConnCtxCancelsBackoff: a NACK storm's backoff sleep must yield
// to cancellation instead of sleeping it out.
func TestWireConnCtxCancelsBackoff(t *testing.T) {
	sink := &ackSink{}
	sink.nackN.Store(1 << 30) // NACK forever
	addr := startSinkListener(t, sink)
	wc, err := DialWire(addr, WireConnConfig{
		RetryBackoff:    5 * time.Second,
		MaxRetryBackoff: 5 * time.Second,
		MaxRetries:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = wc.PushContext(ctx, "s", wirePoints(2))
	if err == nil {
		t.Fatal("push through endless NACKs succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ctx canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v to land; backoff not interruptible", d)
	}
}
