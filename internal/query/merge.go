package query

import (
	"fmt"
	"strconv"
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

// ClassAccWire is ClassAcc in wire form (JSON-safe field tags).
type ClassAccWire struct {
	Count float64   `json:"count"`
	Var   float64   `json:"var"`
	Sums  []float64 `json:"sums,omitempty"`
}

// AccumWire is the JSON form of an Accum — the payload of the server's
// GET /streams/{name}/accum endpoint and the unit a federation
// coordinator merges. Class labels become string keys (JSON objects
// cannot key on ints).
type AccumWire struct {
	T        uint64                  `json:"t"`
	Horizon  uint64                  `json:"horizon"`
	Dim      int                     `json:"dim"`
	Count    float64                 `json:"count"`
	CountVar float64                 `json:"count_var"`
	Sums     []float64               `json:"sums,omitempty"`
	Classes  map[string]ClassAccWire `json:"classes,omitempty"`
	HasRange bool                    `json:"has_range,omitempty"`
	RangeNum float64                 `json:"range_num,omitempty"`
	RangeVar float64                 `json:"range_var,omitempty"`
}

// Wire renders the accumulator for transport. Slices are copied, so the
// wire form does not alias the accumulator.
func (a *Accum) Wire() AccumWire {
	w := AccumWire{
		T:        a.T,
		Horizon:  a.Horizon,
		Dim:      a.Dim,
		Count:    a.Count,
		CountVar: a.CountVar,
		HasRange: a.HasRange,
		RangeNum: a.RangeNum,
		RangeVar: a.RangeVar,
	}
	if len(a.Sums) > 0 {
		w.Sums = append([]float64(nil), a.Sums...)
	}
	if len(a.Classes) > 0 {
		w.Classes = make(map[string]ClassAccWire, len(a.Classes))
		for label, ca := range a.Classes {
			w.Classes[strconv.Itoa(label)] = ClassAccWire{
				Count: ca.Count,
				Var:   ca.Var,
				Sums:  append([]float64(nil), ca.Sums...),
			}
		}
	}
	return w
}

// Accum rebuilds the accumulator from its wire form, rejecting labels that
// do not parse as integers.
func (w AccumWire) Accum() (*Accum, error) {
	a := &Accum{
		T:        w.T,
		Horizon:  w.Horizon,
		Dim:      w.Dim,
		Count:    w.Count,
		CountVar: w.CountVar,
		HasRange: w.HasRange,
		RangeNum: w.RangeNum,
		RangeVar: w.RangeVar,
		Classes:  make(map[int]*ClassAcc, len(w.Classes)),
	}
	if len(w.Sums) > 0 {
		a.Sums = append([]float64(nil), w.Sums...)
	}
	for key, cw := range w.Classes {
		label, err := strconv.Atoi(key)
		if err != nil {
			return nil, fmt.Errorf("query: bad class label %q in wire accumulator", key)
		}
		a.Classes[label] = &ClassAcc{
			Count: cw.Count,
			Var:   cw.Var,
			Sums:  append([]float64(nil), cw.Sums...),
		}
	}
	return a, nil
}
