package query

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"biasedres/internal/core"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// benchReservoir builds a full Synchronized biased reservoir of about
// `capacity` points with dim-dimensional values and a handful of labels.
func benchReservoir(b *testing.B, capacity, dim int) (*core.Synchronized, uint64) {
	b.Helper()
	lambda := 1.0 / float64(capacity)
	r, err := core.NewBiasedReservoir(lambda, xrand.New(42))
	if err != nil {
		b.Fatal(err)
	}
	s := core.NewSynchronized(r)
	rng := xrand.New(7)
	const n = 50000
	pts := make([]stream.Point, n)
	for i := range pts {
		vals := make([]float64, dim)
		for d := range vals {
			vals[d] = rng.Float64()
		}
		pts[i] = stream.Point{Index: uint64(i + 1), Label: i % 5, Weight: 1, Values: vals}
	}
	s.AddBatch(pts)
	return s, n
}

// BenchmarkQueryHorizonAverage measures the fused single-pass walk over a
// cached snapshot answering a horizon average, at three dimensionalities.
func BenchmarkQueryHorizonAverage(b *testing.B) {
	for _, dim := range []int{2, 8, 32} {
		s, n := benchReservoir(b, 1000, dim)
		h := uint64(n / 2)
		b.Run(fmt.Sprintf("fused/dim=%d", dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap := s.AcquireSnapshot()
				if _, err := Accumulate(snap, h, dim, nil).Average(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryUnderIngest measures query latency while a writer
// goroutine ingests batches as fast as the sampler lock admits them — the
// serving pattern the snapshot layer exists for. Each query acquires a
// snapshot, rebuilding only when ingest invalidated it, and reports its p50
// latency as "p50-ns".
func BenchmarkQueryUnderIngest(b *testing.B) {
	const dim, capacity = 8, 1000
	h := uint64(25000)
	b.Run("snapshot", func(b *testing.B) {
		s, n := benchReservoir(b, capacity, dim)
		next := n
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(11)
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]stream.Point, 64)
				for j := range batch {
					next++
					vals := make([]float64, dim)
					for d := range vals {
						vals[d] = rng.Float64()
					}
					batch[j] = stream.Point{Index: next, Label: int(next % 5), Weight: 1, Values: vals}
				}
				s.AddBatch(batch)
			}
		}()

		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := Accumulate(s.AcquireSnapshot(), h, dim, nil).Average(); err != nil {
				b.Fatal(err)
			}
			lats = append(lats, time.Since(start))
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(lats[len(lats)/2].Nanoseconds()), "p50-ns")
	})
}
