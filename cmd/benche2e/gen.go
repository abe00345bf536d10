package main

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"syscall"

	"biasedres/internal/client"
)

// A generator is one goroutine driving one connection. It records every
// call as a root span (due, start, end) in its own slice, so recording
// needs no lock; the run merges the slices afterwards.

// pushFunc sends one batch on a generator's connection.
type pushFunc func(stream string, batch []client.Point) error

// acked counts the points each stream has acknowledged, for the range
// request's start and the processed-sum check. The map itself is
// read-only once generators start.
type acked map[string]*atomic.Int64

func (a acked) total() int64 {
	var n int64
	for _, c := range a {
		n += c.Load()
	}
	return n
}

// failures reports the first few failed operations on stderr, so a run
// that is not correct says why.
type failures struct{ n atomic.Int64 }

func (f *failures) report(format string, args ...any) {
	if f.n.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benche2e: "+format+"\n", args...)
	}
}

// closedIngest pushes batches back to back, each after the previous one
// was acknowledged, cycling over the connection's streams, until the
// clock reaches until.
func closedIngest(clk clock, until int64, conn int, streams []string, batches [][]client.Point,
	push pushFunc, ack acked, fails *failures) []span {
	ops := make([]span, 0, 1<<14)
	for i := 0; ; i++ {
		start := clk.now()
		if start >= until {
			return ops
		}
		name := streams[i%len(streams)]
		batch := batches[(i+conn*len(batches)/2)%len(batches)]
		err := push(name, batch)
		end := clk.now()
		if err != nil {
			fails.report("ingest %s: %v", name, err)
		} else {
			ack[name].Add(int64(len(batch)))
		}
		ops = append(ops, span{layer: layerRoot, op: opIngest, stream: name,
			due: start, start: start, end: end, points: len(batch), failed: err != nil})
	}
}

// schedule paces an open loop: call i is due at from + i*period. When the
// generator is ahead it sleeps until the call is due and records how late
// it woke (its own scheduling error); when a slow call made it fall
// behind it sends at once, and the call's latency, timed from its due
// time, carries the wait.
type schedule struct {
	clk    clock
	from   int64
	period float64 // ns
	late   []float64
}

func (s *schedule) wait(i int) (due int64) {
	due = s.from + int64(float64(i)*s.period)
	if s.clk.now() < due {
		sleepUntil(s.clk, due)
		s.late = append(s.late, us(s.clk.now()-due))
	}
	return due
}

// lateLimitUS is how late (p99) open-loop generators may wake before a
// pass is invalid: its latencies, timed from the due time, would then
// measure the generator more than the daemon.
const lateLimitUS = 1000

// sleepUntil blocks until the clock reaches t. It sleeps in the kernel
// rather than on a Go timer: when a CPU is idle the Go runtime waits for
// timers in whole milliseconds, so a timer due in less than 1 ms wakes up
// to 1 ms late, and every open-loop period here is about that short.
func sleepUntil(clk clock, t int64) {
	for {
		d := t - clk.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // interrupted by a runtime signal: sleep the rest
	}
}

// openIngest sends one batch every batchSize/rate seconds, round-robin
// over streams, until calls come due at or after until.
func openIngest(sched *schedule, until int64, streams []string, batches [][]client.Point,
	push pushFunc, ack acked, fails *failures) []span {
	var ops []span
	for i := 0; ; i++ {
		due := sched.wait(i)
		if due >= until {
			return ops
		}
		name := streams[i%len(streams)]
		batch := batches[i%len(batches)]
		start := sched.clk.now()
		err := push(name, batch)
		end := sched.clk.now()
		if err != nil {
			fails.report("ingest %s: %v", name, err)
		} else {
			ack[name].Add(int64(len(batch)))
		}
		ops = append(ops, span{layer: layerRoot, op: opIngest, stream: name,
			due: due, start: start, end: end, points: len(batch), failed: err != nil})
	}
}

// pacedReads is one reading client in a closed loop: it sends the read
// schedule on one connection, each read after the previous answer came
// back and one period after the previous read was sent, or at once when
// that answer took longer, and checks every answer. A read's latency runs
// from its send, so a stall of the host (the calibration VM loses its
// CPUs to its neighbours for milliseconds at a time) delays the reads it
// hits and not the ones behind it; with reads due on a schedule, every
// read queued behind such a stall counted it, and the read latencies of
// ten runs spread up to 0.6.
func pacedReads(clk clock, period float64, until int64, reads []readDef, cl *client.Client, ack acked,
	fails *failures) []span {
	var ops []span
	next := clk.now()
	for i := 0; i < len(reads); i++ {
		sleepUntil(clk, next)
		start := clk.now()
		if start >= until {
			return ops
		}
		err := doRead(cl, reads[i], ack)
		end := clk.now()
		if err != nil {
			fails.report("read %s on %s: %v", readNames[reads[i].kind], reads[i].stream, err)
		}
		ops = append(ops, span{layer: layerRoot, op: opRead, stream: reads[i].stream,
			due: start, start: start, end: end, failed: err != nil})
		next = start + int64(period)
	}
	return ops
}

// checkSigmas is how many standard deviations (Lemma 4.1 variance) an
// estimate may stray from the truth before the answer counts as wrong.
const checkSigmas = 6

// doRead sends one read and checks its answer against what the generator
// knows to be true. Every stream holds more than h points before reads
// start, so the number of arrivals in a horizon is exactly h.
func doRead(cl *client.Client, r readDef, ack acked) error {
	switch r.kind {
	case readCount:
		est, variance, err := cl.Count(r.stream, r.h)
		if err != nil {
			return err
		}
		return within("count", est, float64(r.h), variance)
	case readAverage:
		avg, err := cl.Average(r.stream, r.h)
		if err != nil {
			return err
		}
		if len(avg) != dim {
			return fmt.Errorf("average has %d dimensions, want %d", len(avg), dim)
		}
		for _, v := range avg {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("average %v is not finite", avg)
			}
		}
		return nil
	case readClassDist:
		dist, err := cl.ClassDistribution(r.stream, r.h)
		if err != nil {
			return err
		}
		var sum float64
		for _, v := range dist {
			if v < 0 || v > 1 {
				return fmt.Errorf("class share %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("class shares sum to %v", sum)
		}
		return nil
	case readRange:
		var start uint64 = 1
		if t := uint64(ack[r.stream].Load()); t > r.h {
			start = t - r.h
		}
		rr, err := cl.Range(r.stream, start, 0, 100)
		if err != nil {
			return err
		}
		var sum, variance float64
		for _, b := range rr.Buckets {
			sum += b.Count
			variance += b.Variance
		}
		return within("range count", sum, float64(rr.End-rr.Start), variance)
	}
	return fmt.Errorf("unknown read kind %d", r.kind)
}

// within checks |est − truth| ≤ checkSigmas·√variance, with a rounding
// allowance for exact (zero-variance) answers.
func within(what string, est, truth, variance float64) error {
	tol := checkSigmas*math.Sqrt(variance) + 1e-6*truth
	if math.IsNaN(est) || math.Abs(est-truth) > tol {
		return fmt.Errorf("%s estimate %.1f, truth %.0f, allowed ±%.1f", what, est, truth, tol)
	}
	return nil
}
