package query

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"biasedres/internal/core"
)

// This file is the HTTP face of the query engine, shared by the daemon's
// GET /streams/{name}/query and the federation coordinator's: one parse of
// the request parameters, one table of the linear query types, and one
// mapping from a type and an Accum to the response's statistic fields. The
// daemon renders its own walk and the coordinator the merge of its shards'
// walks, so both accept the same requests and answer with the same fields.

// Request is one parsed query: the statistic type and the parameters that
// type reads.
type Request struct {
	Type string
	// H is the recent-horizon restriction (0 = whole stream).
	H uint64
	// Dim and Q are quantile's dimension and level.
	Dim int
	Q   float64
	// Rect is selectivity's range predicate; nil for every other type.
	Rect *Rect
}

// linearType is one row of the type table: whether the type's statistic
// reads per-dimension sums, and how it renders from an accumulator.
type linearType struct {
	sums   bool
	answer func(a *Accum) (map[string]any, error)
}

// linearTypes are the query types answered from an Accum, and so the ones
// a coordinator can merge across shards. Quantile, the one other type, is
// not linear.
var linearTypes = map[string]linearType{
	"count": {false, func(a *Accum) (map[string]any, error) {
		return map[string]any{"estimate": a.Count, "variance": a.CountVar}, nil
	}},
	"average": {true, func(a *Accum) (map[string]any, error) {
		avg, err := a.Average()
		return map[string]any{"average": avg}, err
	}},
	"classdist": {false, func(a *Accum) (map[string]any, error) {
		dist, err := a.Distribution()
		return map[string]any{"distribution": dist}, err
	}},
	"groupavg": {true, func(a *Accum) (map[string]any, error) {
		groups, err := a.GroupAverage()
		return map[string]any{"groups": groups}, err
	}},
	"selectivity": {false, func(a *Accum) (map[string]any, error) {
		sel, err := a.Selectivity()
		return map[string]any{"selectivity": sel}, err
	}},
}

// ParseRequest reads type and h, plus the parameters the type needs: dim
// and q for quantile, dims/lo/hi for selectivity. Every error, an unknown
// type included, is the caller's.
func ParseRequest(v url.Values) (Request, error) {
	req := Request{Type: v.Get("type")}
	var err error
	if req.H, err = parseUint(v.Get("h")); err != nil {
		return req, fmt.Errorf("bad horizon: %v", err)
	}
	switch {
	case req.Type == "quantile":
		dim, err := parseUint(v.Get("dim"))
		if err != nil {
			return req, fmt.Errorf("bad dim: %v", err)
		}
		req.Dim = int(dim)
		if req.Q, err = strconv.ParseFloat(v.Get("q"), 64); err != nil {
			return req, fmt.Errorf("bad q: %v", err)
		}
	case req.Type == "selectivity":
		rect, err := ParseRect(v.Get("dims"), v.Get("lo"), v.Get("hi"))
		if err != nil {
			return req, err
		}
		req.Rect = &rect
	case !req.Linear():
		return req, fmt.Errorf("unknown query type %q", req.Type)
	}
	return req, nil
}

// Linear reports whether the request is answered from an Accum: every
// type but quantile.
func (r Request) Linear() bool {
	_, ok := linearTypes[r.Type]
	return ok
}

// ReadsSums reports whether the request's statistic reads per-dimension
// sums (average, groupavg). A walk for any other type should accumulate
// none: at dim 10 the sums cost a count walk about three times its time.
func (r Request) ReadsSums() bool { return linearTypes[r.Type].sums }

// Answer renders the statistic fields of linear query type typ from a
// walk's or a merge's accumulator. An error means the accumulator cannot
// answer: no sample mass in the horizon, or no sums to average.
func Answer(typ string, a *Accum) (map[string]any, error) {
	lt, ok := linearTypes[typ]
	if !ok {
		return nil, fmt.Errorf("query: %q is not a linear query type", typ)
	}
	return lt.answer(a)
}

// SamplePoint is one reservoir resident in a GET /streams/{name}/sample
// body: the point and its inclusion probability p(r,t).
type SamplePoint struct {
	Index  uint64    `json:"index"`
	Values []float64 `json:"values"`
	Label  int       `json:"label"`
	Prob   float64   `json:"prob"`
}

// Sample is the GET /streams/{name}/sample body: the reservoir at stream
// position T. Fields are in key order: the body is pinned byte for byte
// (internal/federation/testdata/bodies).
type Sample struct {
	Points []SamplePoint `json:"points"`
	T      uint64        `json:"t"`
}

// SampleOf renders snap's residents with the probabilities the snapshot
// materialized at capture time. Values are shared with snap, which never
// changes.
func SampleOf(snap *core.Snapshot) Sample {
	out := Sample{Points: make([]SamplePoint, len(snap.Points)), T: snap.T}
	for i := range snap.Points {
		p := &snap.Points[i]
		out.Points[i] = SamplePoint{Index: p.Index, Values: p.Values, Label: p.Label, Prob: snap.Probs[i]}
	}
	return out
}

func parseUint(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// ParseRect builds a Rect from the comma-separated dims/lo/hi query
// parameters the HTTP surfaces share (e.g. dims=0,1&lo=0,0&hi=1,1).
func ParseRect(dims, lo, hi string) (Rect, error) {
	if dims == "" {
		return Rect{}, fmt.Errorf("query: rect needs dims/lo/hi parameters")
	}
	df, err := parseFloatList(dims)
	if err != nil {
		return Rect{}, err
	}
	lf, err := parseFloatList(lo)
	if err != nil {
		return Rect{}, err
	}
	hf, err := parseFloatList(hi)
	if err != nil {
		return Rect{}, err
	}
	di := make([]int, len(df))
	for i, v := range df {
		di[i] = int(v)
	}
	return NewRect(di, lf, hf)
}

// Params renders the rect back into the dims/lo/hi parameter triple
// ParseRect accepts — the client-side encoder.
func (r Rect) Params() (dims, lo, hi string) {
	ds := make([]string, len(r.Dims))
	ls := make([]string, len(r.Lo))
	hs := make([]string, len(r.Hi))
	for i, d := range r.Dims {
		ds[i] = strconv.Itoa(d)
	}
	for i, v := range r.Lo {
		ls[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	for i, v := range r.Hi {
		hs[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(ds, ","), strings.Join(ls, ","), strings.Join(hs, ",")
}

func parseFloatList(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("query: bad number %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
