package query

import (
	"math"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// twoClassStream: label 0 points sit at value v=0, label 1 at v=10; labels
// alternate 3:1.
func twoClassStream(n int) []stream.Point {
	pts := make([]stream.Point, n)
	for i := range pts {
		label, v := 0, 0.0
		if i%4 == 3 {
			label, v = 1, 10.0
		}
		pts[i] = stream.Point{Index: uint64(i + 1), Values: []float64{v, v * 2}, Label: label, Weight: 1}
	}
	return pts
}

func TestGroupAverage(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.002, xrand.New(3))
	for _, p := range twoClassStream(20000) {
		b.Add(p)
	}
	groups, err := Accumulate(core.SnapshotOf(b), 1000, 2, nil).GroupAverage()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if math.Abs(groups[0][0]-0) > 0.5 || math.Abs(groups[0][1]-0) > 1 {
		t.Fatalf("class 0 average = %v", groups[0])
	}
	if math.Abs(groups[1][0]-10) > 0.5 || math.Abs(groups[1][1]-20) > 1 {
		t.Fatalf("class 1 average = %v", groups[1])
	}
}

func TestGroupAverageValidation(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.1, xrand.New(1))
	if _, err := Accumulate(core.SnapshotOf(b), 10, 0, nil).GroupAverage(); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := Accumulate(core.SnapshotOf(b), 10, 1, nil).GroupAverage(); err == nil {
		t.Error("empty reservoir accepted")
	}
}

func TestGroupCountConsistency(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.002, xrand.New(5))
	for _, p := range twoClassStream(20000) {
		b.Add(p)
	}
	const h = 1000
	counts, err := Accumulate(core.SnapshotOf(b), h, 0, nil).GroupCount()
	if err != nil {
		t.Fatal(err)
	}
	// Σ group counts must equal the total count estimate exactly.
	var sum float64
	for _, c := range counts {
		sum += c
	}
	total := EstimateOn(core.SnapshotOf(b), Count(h))
	if math.Abs(sum-total) > 1e-9*(1+total) {
		t.Fatalf("group counts sum %v != total %v", sum, total)
	}
	// And normalizing must reproduce ClassDistribution.
	dist, err := Accumulate(core.SnapshotOf(b), h, 0, nil).Distribution()
	if err != nil {
		t.Fatal(err)
	}
	for label, c := range counts {
		if math.Abs(c/sum-dist[label]) > 1e-9 {
			t.Fatalf("label %d: normalized %v vs dist %v", label, c/sum, dist[label])
		}
	}
	empty, _ := core.NewBiasedReservoir(0.1, xrand.New(1))
	if _, err := Accumulate(core.SnapshotOf(empty), 10, 0, nil).GroupCount(); err == nil {
		t.Error("empty reservoir accepted")
	}
}

func TestTopKValidation(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.1, xrand.New(1))
	if _, err := Accumulate(core.SnapshotOf(b), 10, 0, nil).TopK(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Accumulate(core.SnapshotOf(b), 10, 0, nil).TopK(3); err == nil {
		t.Error("empty reservoir accepted")
	}
}

func TestTopKRanking(t *testing.T) {
	// Labels with frequencies 0:60%, 1:30%, 2:9%, 3:1%.
	b, _ := core.NewBiasedReservoir(0.002, xrand.New(3))
	rng := xrand.New(4)
	for i := 1; i <= 30000; i++ {
		u := rng.Float64()
		label := 0
		switch {
		case u > 0.99:
			label = 3
		case u > 0.90:
			label = 2
		case u > 0.60:
			label = 1
		}
		b.Add(stream.Point{Index: uint64(i), Values: []float64{1}, Label: label, Weight: 1})
	}
	top, err := Accumulate(core.SnapshotOf(b), 1000, 0, nil).TopK(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("got %d entries", len(top))
	}
	if top[0].Label != 0 || top[1].Label != 1 {
		t.Fatalf("ranking = %v", top)
	}
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatalf("not sorted: %v", top)
		}
	}
	// Counts roughly match frequencies over the horizon.
	if math.Abs(top[0].Count-600) > 250 {
		t.Fatalf("top count %v, want ~600", top[0].Count)
	}
	for _, e := range top {
		if e.Sigma <= 0 {
			t.Fatalf("entry %v has no error bar", e)
		}
	}
}

func TestTopKFewerLabelsThanK(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.01, xrand.New(5))
	for i := 1; i <= 1000; i++ {
		b.Add(stream.Point{Index: uint64(i), Label: i % 2, Weight: 1})
	}
	top, err := Accumulate(core.SnapshotOf(b), 500, 0, nil).TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("got %d entries, want 2", len(top))
	}
}

// TopK totals must agree with GroupCount (same estimator, different
// presentation).
func TestTopKMatchesGroupCount(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.005, xrand.New(7))
	for i := 1; i <= 10000; i++ {
		b.Add(stream.Point{Index: uint64(i), Label: i % 4, Weight: 1})
	}
	top, err := Accumulate(core.SnapshotOf(b), 2000, 0, nil).TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := Accumulate(core.SnapshotOf(b), 2000, 0, nil).GroupCount()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range top {
		if math.Abs(e.Count-counts[e.Label]) > 1e-9 {
			t.Fatalf("label %d: topk %v vs groupcount %v", e.Label, e.Count, counts[e.Label])
		}
	}
}
