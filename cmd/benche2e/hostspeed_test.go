package main

import (
	"math"
	"testing"
	"time"
)

func TestNormalize(t *testing.T) {
	measured := func() map[string]value {
		return map[string]value{
			"setup_s":          {0.5, 7},
			"ingest_pts_per_s": {1000, 9},
			"latency_p50_us":   {300, 9},
			"peak_rss_mb":      {100, 1},
		}
	}
	const speed = 0.8 // the host ran 25% slower than the reference
	for _, c := range []struct {
		closedLoop bool
		rate       float64
	}{{true, 1250}, {false, 1000}} {
		m := measured()
		normalize(m, speed, 40, c.closedLoop)
		want := map[string]value{
			"setup_s":          {0.4, 7},
			"ingest_pts_per_s": {c.rate, 9},
			"latency_p50_us":   {240, 9},
			"peak_rss_mb":      {100, 1},
			"host.speed":       {speed, 40},
		}
		for name, w := range want {
			if got := m[name]; math.Abs(got.V-w.V) > 1e-9 || got.N != w.N {
				t.Errorf("closed loop %v: %s = %+v, want %+v", c.closedLoop, name, got, w)
			}
		}
	}
}

func TestProbeMeasuresHostSpeed(t *testing.T) {
	stop := make(chan struct{})
	time.AfterFunc(500*time.Millisecond, func() { close(stop) })
	s := probeUntil(stop)
	if len(s) < 2 {
		t.Fatalf("%d samples in 500 ms, want about 5", len(s))
	}
	if speed := hostSpeed(s); !(speed > 0 && speed < 100) {
		t.Errorf("host speed %v from samples %v", speed, s)
	}
}
