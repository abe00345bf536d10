package query

import (
	"math"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

func TestQuantileValidation(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.1, xrand.New(1))
	for _, q := range []float64{0, 1, -0.5, 2} {
		if _, err := QuantileOn(core.SnapshotOf(b), 10, 0, q); err == nil {
			t.Errorf("q=%v accepted", q)
		}
	}
	if _, err := QuantileOn(core.SnapshotOf(b), 10, -1, 0.5); err == nil {
		t.Error("negative dim accepted")
	}
	// Empty reservoir.
	if _, err := QuantileOn(core.SnapshotOf(b), 10, 0, 0.5); err == nil {
		t.Error("empty reservoir answered")
	}
}

func TestQuantileFullSample(t *testing.T) {
	// A probability-1 sampler makes the estimate exact.
	pts := make([]stream.Point, 100)
	for i := range pts {
		pts[i] = stream.Point{Index: uint64(i + 1), Values: []float64{float64(i + 1)}, Weight: 1}
	}
	full := &fullSampler{pts: pts}
	got, err := QuantileOn(core.SnapshotOf(full), 0, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got < 49 || got > 52 {
		t.Fatalf("median of 1..100 estimated %v", got)
	}
	q90, err := QuantileOn(core.SnapshotOf(full), 0, 0, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if q90 < 88 || q90 > 92 {
		t.Fatalf("p90 of 1..100 estimated %v", q90)
	}
}

func TestMedianFromBiasedReservoir(t *testing.T) {
	const total, horizon, trials = 30000, 500, 25
	rng := xrand.New(3)
	gen := xrand.New(4)
	pts := make([]stream.Point, total)
	for i := range pts {
		// Values drift upward so the horizon median differs sharply
		// from the all-time median.
		base := float64(i) / 1000
		pts[i] = stream.Point{Index: uint64(i + 1), Values: []float64{base + gen.NormFloat64()}, Weight: 1}
	}
	want, err := TrueQuantile(pts, total, horizon, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for trial := 0; trial < trials; trial++ {
		b, _ := core.NewBiasedReservoir(0.002, rng.Split())
		for _, p := range pts {
			b.Add(p)
		}
		got, err := QuantileOn(core.SnapshotOf(b), horizon, 0, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sum += got
	}
	mean := sum / trials
	if math.Abs(mean-want) > 0.5 {
		t.Fatalf("median estimate %v, true %v", mean, want)
	}
}

func TestTruthQuantile(t *testing.T) {
	tr, _ := NewTruth(50)
	for i := 1; i <= 100; i++ {
		tr.Observe(stream.Point{Index: uint64(i), Values: []float64{float64(i)}, Weight: 1})
	}
	// Last 50 values are 51..100; median ≈ 76.
	got, err := tr.Quantile(50, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got < 74 || got > 78 {
		t.Fatalf("truth median %v", got)
	}
	if _, err := tr.Quantile(50, 0, 0); err == nil {
		t.Error("q=0 accepted")
	}
}

func TestTrueQuantileEmpty(t *testing.T) {
	if _, err := TrueQuantile(nil, 10, 5, 0, 0.5); err == nil {
		t.Error("empty point set answered")
	}
}
