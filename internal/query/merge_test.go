package query

import (
	"encoding/json"
	"math"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// syntheticSnapshot builds a deterministic snapshot of n points at stream
// position t with varied labels, values and inclusion probabilities.
func syntheticSnapshot(n int, t uint64, dim int) *core.Snapshot {
	rng := xrand.New(99)
	snap := &core.Snapshot{T: t, Cap: n}
	for i := 0; i < n; i++ {
		vals := make([]float64, dim)
		for d := range vals {
			vals[d] = rng.Float64()*10 - 5
		}
		snap.Points = append(snap.Points, stream.Point{
			Index:  uint64(i*3 + 1), // spread indices across [1, 3n]
			Values: vals,
			Label:  i % 4,
			Weight: 1,
		})
		snap.Probs = append(snap.Probs, 0.05+0.95*rng.Float64())
	}
	return snap
}

// relClose reports |a-b| <= tol·max(|a|,|b|,1).
func relClose(a, b, tol float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) <= tol*scale
}

// TestAccumMergeMatchesWhole is the HT-linearity property the federation
// layer rests on: partitioning a snapshot's points into disjoint shards,
// accumulating each shard separately and merging must reproduce the whole
// snapshot's accumulator (up to float association).
func TestAccumMergeMatchesWhole(t *testing.T) {
	const dim = 3
	whole := syntheticSnapshot(300, 1000, dim)
	rect := Rect{Dims: []int{0}, Lo: []float64{-1}, Hi: []float64{3}}
	for _, h := range []uint64{0, 400} {
		want := Accumulate(whole, h, dim, &rect)

		const k = 3
		shards := make([]*core.Snapshot, k)
		for i := range shards {
			shards[i] = &core.Snapshot{T: whole.T, Cap: whole.Cap}
		}
		for i := range whole.Points {
			s := shards[i%k]
			s.Points = append(s.Points, whole.Points[i])
			s.Probs = append(s.Probs, whole.Probs[i])
		}
		got := NewMergeAccum(h)
		for _, s := range shards {
			got.Merge(Accumulate(s, h, dim, &rect))
		}

		const tol = 1e-9
		if !relClose(got.Count, want.Count, tol) || !relClose(got.CountVar, want.CountVar, tol) {
			t.Fatalf("h=%d: merged count %v/%v, want %v/%v", h, got.Count, got.CountVar, want.Count, want.CountVar)
		}
		if !relClose(got.RangeNum, want.RangeNum, tol) || !relClose(got.RangeVar, want.RangeVar, tol) {
			t.Fatalf("h=%d: merged range %v/%v, want %v/%v", h, got.RangeNum, got.RangeVar, want.RangeNum, want.RangeVar)
		}
		if got.Dim != want.Dim || len(got.Sums) != len(want.Sums) {
			t.Fatalf("h=%d: merged dim/sums shape %d/%d, want %d/%d", h, got.Dim, len(got.Sums), want.Dim, len(want.Sums))
		}
		for d := range want.Sums {
			if !relClose(got.Sums[d], want.Sums[d], tol) {
				t.Fatalf("h=%d: merged sum[%d] = %v, want %v", h, d, got.Sums[d], want.Sums[d])
			}
		}
		if len(got.Classes) != len(want.Classes) {
			t.Fatalf("h=%d: merged %d classes, want %d", h, len(got.Classes), len(want.Classes))
		}
		for label, wc := range want.Classes {
			gc := got.Classes[label]
			if gc == nil {
				t.Fatalf("h=%d: merged accumulator lost class %d", h, label)
			}
			if !relClose(gc.Count, wc.Count, tol) || !relClose(gc.Var, wc.Var, tol) {
				t.Fatalf("h=%d class %d: merged %v/%v, want %v/%v", h, label, gc.Count, gc.Var, wc.Count, wc.Var)
			}
			for d := range wc.Sums {
				if !relClose(gc.Sums[d], wc.Sums[d], tol) {
					t.Fatalf("h=%d class %d sum[%d]: merged %v, want %v", h, label, d, gc.Sums[d], wc.Sums[d])
				}
			}
		}

		// Derived statistics agree too.
		wantAvg, err1 := want.Average()
		gotAvg, err2 := got.Average()
		if err1 != nil || err2 != nil {
			t.Fatalf("h=%d: average errors: %v, %v", h, err1, err2)
		}
		for d := range wantAvg {
			if !relClose(gotAvg[d], wantAvg[d], tol) {
				t.Fatalf("h=%d: merged average[%d] = %v, want %v", h, d, gotAvg[d], wantAvg[d])
			}
		}
		wantSel, err1 := want.Selectivity()
		gotSel, err2 := got.Selectivity()
		if err1 != nil || err2 != nil {
			t.Fatalf("h=%d: selectivity errors: %v, %v", h, err1, err2)
		}
		if !relClose(gotSel, wantSel, tol) {
			t.Fatalf("h=%d: merged selectivity %v, want %v", h, gotSel, wantSel)
		}
	}
}

// TestMergeEmptyAndDimPromotion: empty shards merge as no-ops, and an
// empty (Dim 0) accumulator adopts the wider shard's dimensionality.
func TestMergeEmptyAndDimPromotion(t *testing.T) {
	snap := syntheticSnapshot(50, 200, 2)
	full := Accumulate(snap, 0, 2, nil)
	empty := Accumulate(&core.Snapshot{T: 0, Cap: 10}, 0, 0, nil)

	merged := NewMergeAccum(0)
	merged.Merge(empty)
	merged.Merge(full)
	merged.Merge(empty)

	if merged.Dim != 2 || len(merged.Sums) != 2 {
		t.Fatalf("merged dim %d / %d sums, want 2/2", merged.Dim, len(merged.Sums))
	}
	if !relClose(merged.Count, full.Count, 1e-12) {
		t.Fatalf("merging empties changed the count: %v vs %v", merged.Count, full.Count)
	}
	if merged.T != full.T {
		t.Fatalf("merged T = %d, want %d", merged.T, full.T)
	}
}

// TestAccumWireRoundTrip: Accum → JSON → Accum is lossless.
func TestAccumWireRoundTrip(t *testing.T) {
	snap := syntheticSnapshot(120, 500, 2)
	rect := Rect{Dims: []int{1}, Lo: []float64{-2}, Hi: []float64{2}}
	orig := Accumulate(snap, 100, 2, &rect)

	blob, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAccum(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.T != orig.T || back.Horizon != orig.Horizon || back.Dim != orig.Dim ||
		back.Count != orig.Count || back.CountVar != orig.CountVar ||
		back.HasRange != orig.HasRange || back.RangeNum != orig.RangeNum || back.RangeVar != orig.RangeVar {
		t.Fatalf("scalar fields changed across the wire:\n  orig %+v\n  back %+v", orig, back)
	}
	if len(back.Sums) != len(orig.Sums) {
		t.Fatalf("sums length %d, want %d", len(back.Sums), len(orig.Sums))
	}
	for d := range orig.Sums {
		if back.Sums[d] != orig.Sums[d] {
			t.Fatalf("sum[%d] changed: %v vs %v", d, back.Sums[d], orig.Sums[d])
		}
	}
	if len(back.Classes) != len(orig.Classes) {
		t.Fatalf("classes %d, want %d", len(back.Classes), len(orig.Classes))
	}
	for label, oc := range orig.Classes {
		bc := back.Classes[label]
		if bc == nil || bc.Count != oc.Count || bc.Var != oc.Var {
			t.Fatalf("class %d changed across the wire: %+v vs %+v", label, bc, oc)
		}
	}

	for _, bad := range []string{
		`{"classes":{"nope":{"count":1,"var":0}}}`,
		`{"classes":{"1":null}}`,
		`{"dim":2,"sums":[1]}`,
		`{"dim":1000000000}`,
		`{"dim":1,"sums":[1],"classes":{"1":{"count":1,"var":0}}}`,
	} {
		if _, err := DecodeAccum([]byte(bad)); err == nil {
			t.Errorf("%s survived wire decoding", bad)
		}
	}
}

// TestParseRectRoundTrip: Rect → params → Rect is the identity.
func TestParseRectRoundTrip(t *testing.T) {
	orig := Rect{Dims: []int{0, 3}, Lo: []float64{-1.5, 0}, Hi: []float64{2.25, 10}}
	dims, lo, hi := orig.Params()
	back, err := ParseRect(dims, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Dims) != 2 || back.Dims[0] != 0 || back.Dims[1] != 3 ||
		back.Lo[0] != -1.5 || back.Hi[1] != 10 {
		t.Fatalf("rect changed across params: %+v vs %+v", back, orig)
	}
	if _, err := ParseRect("", "", ""); err == nil {
		t.Fatal("empty dims should error")
	}
	if _, err := ParseRect("0", "x", "1"); err == nil {
		t.Fatal("bad lo should error")
	}
}
