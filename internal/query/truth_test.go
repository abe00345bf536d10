package query

import (
	"math"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
)

func mkLabeled(n int) []stream.Point {
	pts := make([]stream.Point, n)
	for i := range pts {
		pts[i] = stream.Point{
			Index:  uint64(i + 1),
			Values: []float64{float64(i + 1), float64(2 * (i + 1))},
			Label:  i % 2,
			Weight: 1,
		}
	}
	return pts
}

func TestTruthValidation(t *testing.T) {
	if _, err := NewTruth(0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestTruthCountSumAverage(t *testing.T) {
	tr, err := NewTruth(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mkLabeled(50) {
		tr.Observe(p)
	}
	if tr.Now() != 50 {
		t.Fatalf("Now = %d", tr.Now())
	}
	c, err := tr.Count(10)
	if err != nil || c != 10 {
		t.Fatalf("count = %v, %v", c, err)
	}
	// Last 10 values in dim 0 are 41..50, sum = 455.
	s, err := tr.Sum(10, 0)
	if err != nil || s != 455 {
		t.Fatalf("sum = %v, %v", s, err)
	}
	avg, err := tr.Average(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if avg[0] != 45.5 || avg[1] != 91 {
		t.Fatalf("average = %v", avg)
	}
	if _, err := tr.Average(10, 0); err == nil {
		t.Error("dim 0 accepted")
	}
}

func TestTruthHorizonBeyondCapacity(t *testing.T) {
	tr, _ := NewTruth(20)
	for _, p := range mkLabeled(100) {
		tr.Observe(p)
	}
	if _, err := tr.Count(21); err == nil {
		t.Fatal("horizon beyond capacity accepted")
	}
}

func TestTruthClassDistribution(t *testing.T) {
	tr, _ := NewTruth(100)
	for _, p := range mkLabeled(40) {
		tr.Observe(p)
	}
	dist, err := tr.ClassDistribution(40)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist[0]-0.5) > 1e-12 || math.Abs(dist[1]-0.5) > 1e-12 {
		t.Fatalf("distribution = %v", dist)
	}
	fresh, _ := NewTruth(10)
	if _, err := fresh.ClassDistribution(5); err == nil {
		t.Error("empty truth gave a class distribution")
	}
}

func TestTruthRangeSelectivity(t *testing.T) {
	tr, _ := NewTruth(100)
	for _, p := range mkLabeled(50) {
		tr.Observe(p)
	}
	// Last 10 points have dim0 in 41..50; rect [41,45] covers half.
	rect, _ := NewRect([]int{0}, []float64{41}, []float64{45})
	sel, err := tr.RangeSelectivity(10, rect)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sel-0.5) > 1e-12 {
		t.Fatalf("selectivity = %v", sel)
	}
	fresh, _ := NewTruth(10)
	if _, err := fresh.RangeSelectivity(5, rect); err == nil {
		t.Error("empty truth gave a selectivity")
	}
}

func TestTruthEvaluate(t *testing.T) {
	tr, _ := NewTruth(100)
	for _, p := range mkLabeled(50) {
		tr.Observe(p)
	}
	if got := tr.Evaluate(Count(10)); got != 10 {
		t.Fatalf("Evaluate(count) = %v", got)
	}
	if got := tr.Evaluate(Sum(10, 0)); got != 455 {
		t.Fatalf("Evaluate(sum) = %v", got)
	}
}

// The estimator and Truth must agree exactly when the "sampler" holds the
// whole horizon with probability 1 (a degenerate check tying the two
// implementations together).
func TestTruthVsFullSample(t *testing.T) {
	pts := mkLabeled(30)
	tr, _ := NewTruth(30)
	full := &fullSampler{pts: pts}
	for _, p := range pts {
		tr.Observe(p)
	}
	for _, h := range []uint64{1, 5, 30} {
		want, err := tr.Count(h)
		if err != nil {
			t.Fatal(err)
		}
		if got := EstimateOn(core.SnapshotOf(full), Count(h)); math.Abs(got-want) > 1e-9 {
			t.Fatalf("h=%d: estimate %v, truth %v", h, got, want)
		}
	}
}

// fullSampler retains everything with probability 1 — a test double.
type fullSampler struct{ pts []stream.Point }

func (f *fullSampler) Add(p stream.Point)           { f.pts = append(f.pts, p) }
func (f *fullSampler) Points() []stream.Point       { return f.pts }
func (f *fullSampler) Sample() []stream.Point       { return append([]stream.Point(nil), f.pts...) }
func (f *fullSampler) Len() int                     { return len(f.pts) }
func (f *fullSampler) Capacity() int                { return len(f.pts) }
func (f *fullSampler) Processed() uint64            { return uint64(len(f.pts)) }
func (f *fullSampler) InclusionProb(uint64) float64 { return 1 }
