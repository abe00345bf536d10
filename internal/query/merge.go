package query

import (
	"encoding/json"
	"fmt"
)

// This file is the cross-shard half of the query engine: the fused
// accumulator of fused.go made mergeable and wire-portable, so a
// federation coordinator can scatter a query to N reservoird nodes,
// gather one Accum per shard, and sum them.
//
// The merge is exact, not approximate: the paper's Section-4 estimator
// H(t) = Σ I(r,t)·c_r·h(X_r)/p(r,t) is a sum over points, each weighted by
// an inclusion probability that depends only on its own shard's stream. A
// disjoint union of shard streams therefore satisfies
//
//	H_union = Σ_shards H_shard
//
// term by term, and the Lemma 4.1 variance — itself a per-point sum, with
// cross-point covariances that vanish across independently sampled shards
// — adds the same way. Every Accum field is such a sum (Count, CountVar,
// Sums, per-class counts/variances/sums, the range numerator), so Merge is
// plain addition and any statistic derived from the merged accumulator
// (Average, Distribution, Selectivity, ...) equals the statistic computed
// from the union stream's own accumulator.

// NewMergeAccum returns an empty accumulator ready to Merge shard results
// into. h records the coordinator-level horizon the shards were asked
// about (informational; the per-shard walks already applied their own).
func NewMergeAccum(h uint64) *Accum {
	return &Accum{Horizon: h, Classes: make(map[int]*ClassAcc)}
}

// Merge folds b's accumulator terms into a — the Horvitz–Thompson merge
// for disjoint shard streams: every term is a per-point sum, so merging is
// addition (see the file comment for why this is exact). T becomes the
// largest shard position seen; dimensionality is promoted to the wider of
// the two so empty shards (Dim 0) merge as no-ops. b is not modified and
// no slice is aliased.
func (a *Accum) Merge(b *Accum) {
	if b == nil {
		return
	}
	if b.T > a.T {
		a.T = b.T
	}
	if b.Dim > a.Dim {
		a.Dim = b.Dim
	}
	a.Sums = addPadded(a.Sums, b.Sums, a.Dim)
	a.Count += b.Count
	a.CountVar += b.CountVar
	a.HasRange = a.HasRange || b.HasRange
	a.RangeNum += b.RangeNum
	a.RangeVar += b.RangeVar
	if a.Classes == nil && len(b.Classes) > 0 {
		a.Classes = make(map[int]*ClassAcc, len(b.Classes))
	}
	for label, cb := range b.Classes {
		ca := a.Classes[label]
		if ca == nil {
			ca = &ClassAcc{}
			a.Classes[label] = ca
		}
		ca.Count += cb.Count
		ca.Var += cb.Var
		ca.Sums = addPadded(ca.Sums, cb.Sums, a.Dim)
	}
}

// addPadded returns dst grown to dim with src's elements added in. dst is
// reused when already large enough; src is never aliased.
func addPadded(dst, src []float64, dim int) []float64 {
	n := len(dst)
	if len(src) > n {
		n = len(src)
	}
	if dim > n {
		n = dim
	}
	if n == 0 {
		return dst
	}
	if len(dst) < n {
		grown := make([]float64, n)
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// DecodeAccum decodes an /accum body, refusing one that Merge could not
// fold in: a null class, or a sums vector, the global one or a class's,
// whose length is not Dim. What Merge then allocates is bounded by the
// body's own length.
func DecodeAccum(data []byte) (*Accum, error) {
	a := &Accum{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("query: decoding accumulator: %w", err)
	}
	if len(a.Sums) != a.Dim {
		return nil, fmt.Errorf("query: accumulator has %d sums for dim %d", len(a.Sums), a.Dim)
	}
	for label, ca := range a.Classes {
		if ca == nil || len(ca.Sums) != a.Dim {
			return nil, fmt.Errorf("query: accumulator class %d does not hold %d sums", label, a.Dim)
		}
	}
	return a, nil
}
