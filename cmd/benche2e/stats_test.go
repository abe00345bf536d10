package main

import (
	"math"
	"testing"
)

func TestPercentileInterpolatesAndCounts(t *testing.T) {
	var d dist
	for i := 1; i <= 100; i++ {
		d = append(d, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {50, 50.5}, {99, 99.01}, {100, 100}} {
		if got := d.percentile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.q, got, c.want)
		}
	}
	// The report carries the sample count next to the value; an empty set
	// reports 0 with n = 0 rather than NaN, which JSON cannot carry.
	if got := (dist{}).percentile(99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
	v := value{d.percentile(99), len(d)}
	if v.N != 100 {
		t.Errorf("n = %d, want 100", v.N)
	}
}

// The quartiles must be Python's statistics.quantiles(values, n=4), so a
// spread computed by hand from the metric lines matches -compare's.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {45, 48}}
	if got := unionLen(ivs); got != 5+20+10 {
		t.Errorf("union = %d, want 35", got)
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("empty union = %d", got)
	}
}
