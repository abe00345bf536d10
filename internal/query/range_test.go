package query

import (
	"math"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
)

func TestGranularityFor(t *testing.T) {
	cases := []struct {
		span      uint64
		maxPoints int
		want      uint64
	}{
		{0, 100, 1},
		{1, 100, 1},
		{100, 100, 1},
		{101, 100, 2},
		{200, 100, 2},
		{201, 100, 5},
		{500, 100, 5},
		{501, 100, 10},
		{1000, 100, 10},
		{99999, 100, 1000},
		{100000, 100, 1000},
		{100001, 100, 2000},
		{1_000_000, 200, 5000},
		{10, 0, 10},  // maxPoints clamps to 1
		{10, -5, 10}, // negative clamps to 1
		{7, 3, 5},    // ceil(7/2)=4 > 3, ceil(7/5)=2 <= 3
	}
	for _, c := range cases {
		if got := GranularityFor(c.span, c.maxPoints); got != c.want {
			t.Errorf("GranularityFor(%d, %d) = %d, want %d", c.span, c.maxPoints, got, c.want)
		}
	}
	// The chosen width always fits the budget.
	for _, span := range []uint64{1, 17, 999, 123456, 1 << 40} {
		for _, mp := range []int{1, 3, 50, 1000} {
			step := GranularityFor(span, mp)
			if nb := (span + step - 1) / step; nb > uint64(mp) {
				t.Errorf("span %d maxPoints %d: step %d yields %d buckets", span, mp, step, nb)
			}
		}
	}
}

// goldenSnapshot builds a snapshot with hand-set inclusion probabilities so
// bucket estimates are exactly computable.
func goldenSnapshot(t uint64, pts []stream.Point, probs []float64) *core.Snapshot {
	return &core.Snapshot{T: t, Cap: len(pts), Points: pts, Probs: probs}
}

func TestAccumulateBucketsGolden(t *testing.T) {
	// Residents at indices 1..10 with p = 0.5 (weight 2 each), dim 1 with
	// value = index.
	pts := make([]stream.Point, 10)
	probs := make([]float64, 10)
	for i := range pts {
		pts[i] = stream.Point{Index: uint64(i + 1), Values: []float64{float64(i + 1)}}
		probs[i] = 0.5
	}
	snap := goldenSnapshot(10, pts, probs)

	// [1, 11) at step 4 → buckets [1,5) [5,9) [9,11).
	buckets, err := AccumulateBuckets(snap, 1, 11, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 3 {
		t.Fatalf("got %d buckets, want 3", len(buckets))
	}
	// Each resident: w = 2, var term (2-1)/0.5 = 2, sum term v/0.5 = 2v.
	want := []Bucket{
		{Start: 1, End: 5, Count: 8, Variance: 8, Sums: []float64{2 * (1 + 2 + 3 + 4)}},
		{Start: 5, End: 9, Count: 8, Variance: 8, Sums: []float64{2 * (5 + 6 + 7 + 8)}},
		{Start: 9, End: 11, Count: 4, Variance: 4, Sums: []float64{2 * (9 + 10)}},
	}
	for i, w := range want {
		g := buckets[i]
		if g.Start != w.Start || g.End != w.End {
			t.Errorf("bucket %d bounds [%d,%d), want [%d,%d)", i, g.Start, g.End, w.Start, w.End)
		}
		if math.Abs(g.Count-w.Count) > 1e-12 || math.Abs(g.Variance-w.Variance) > 1e-12 {
			t.Errorf("bucket %d count=%v var=%v, want %v/%v", i, g.Count, g.Variance, w.Count, w.Variance)
		}
		if math.Abs(g.Sums[0]-w.Sums[0]) > 1e-12 {
			t.Errorf("bucket %d sum=%v, want %v", i, g.Sums[0], w.Sums[0])
		}
	}
	// Mean of the last bucket: (18+20)/4 = 9.5.
	if m := buckets[2].Mean; len(m) != 1 || math.Abs(m[0]-9.5) > 1e-12 {
		t.Errorf("Mean = %v, want [9.5]", m)
	}
}

func TestAccumulateBucketsEmptyAndClipped(t *testing.T) {
	// One resident at index 7; range [1, 10) step 3 → [1,4) [4,7) [7,10).
	snap := goldenSnapshot(9,
		[]stream.Point{{Index: 7, Values: []float64{42}}},
		[]float64{0.25})
	buckets, err := AccumulateBuckets(snap, 1, 10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 3 {
		t.Fatalf("got %d buckets, want 3", len(buckets))
	}
	if buckets[0].Count != 0 || buckets[1].Count != 0 {
		t.Errorf("empty buckets carry mass: %v %v", buckets[0].Count, buckets[1].Count)
	}
	if buckets[2].Count != 4 {
		t.Errorf("bucket 2 count = %v, want 4", buckets[2].Count)
	}
	if buckets[0].Mean != nil {
		t.Errorf("empty bucket mean = %v, want none", buckets[0].Mean)
	}

	// Clipping: [5, 7) step 10 → single bucket [5,7); resident excluded.
	buckets, err = AccumulateBuckets(snap, 5, 7, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 1 || buckets[0].Start != 5 || buckets[0].End != 7 {
		t.Fatalf("clipped bucket = %+v", buckets)
	}
	if buckets[0].Count != 0 {
		t.Errorf("out-of-range resident counted")
	}
}

func TestAccumulateBucketsSkipsInvalid(t *testing.T) {
	// Points beyond T, at index 0, or with p <= 0 contribute nothing.
	snap := goldenSnapshot(5, []stream.Point{
		{Index: 0}, {Index: 9}, {Index: 3}, {Index: 4},
	}, []float64{1, 1, 0, 0.5})
	buckets, err := AccumulateBuckets(snap, 1, 6, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if buckets[0].Count != 2 {
		t.Errorf("count = %v, want 2 (only the p=0.5 resident at index 4)", buckets[0].Count)
	}
}

func TestAccumulateBucketsErrors(t *testing.T) {
	snap := goldenSnapshot(5, nil, nil)
	if _, err := AccumulateBuckets(snap, 0, 5, 1, 0); err == nil {
		t.Errorf("start 0 accepted")
	}
	if _, err := AccumulateBuckets(snap, 5, 5, 1, 0); err == nil {
		t.Errorf("empty range accepted")
	}
	if _, err := AccumulateBuckets(snap, 1, 5, 0, 0); err == nil {
		t.Errorf("zero step accepted")
	}
}
