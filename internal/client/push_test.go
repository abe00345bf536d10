package client

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"biasedres/internal/wire"
)

// randPoints draws n points with random finite floats (every exponent,
// signed zeros, subnormals) and random optional fields.
func randPoints(rng *rand.Rand, n int) []Point {
	randFloat := func() float64 {
		switch rng.IntN(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
		case 2:
			return rng.NormFloat64()
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	pts := make([]Point, n)
	for i := range pts {
		var p Point
		if rng.IntN(10) > 0 {
			p.Values = make([]float64, rng.IntN(12))
			for d := range p.Values {
				p.Values[d] = randFloat()
			}
		}
		if rng.IntN(2) == 0 {
			label := int(rng.Uint64())
			p.Label = &label
		}
		if rng.IntN(2) == 0 {
			p.Weight = randFloat()
		}
		if rng.IntN(2) == 0 {
			ts := randFloat()
			p.TS = &ts
		}
		pts[i] = p
	}
	return pts
}

// TestAppendPushMatchesMarshal: the append encoder's body decodes to what
// json.Marshal's body of the same points decodes to, floats bit for bit.
func TestAppendPushMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	decode := func(blob []byte) []Point {
		t.Helper()
		var req struct {
			Points []Point `json:"points"`
		}
		if err := json.Unmarshal(blob, &req); err != nil {
			t.Fatalf("decoding %q: %v", blob, err)
		}
		return req.Points
	}
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	cases := [][]Point{nil, {}, {{}}}
	for i := 0; i < 200; i++ {
		cases = append(cases, randPoints(rng, rng.IntN(30)))
	}
	for _, pts := range cases {
		mine, err := appendPush(nil, pts)
		if err != nil {
			t.Fatal(err)
		}
		theirs, err := json.Marshal(map[string]any{"points": pts})
		if err != nil {
			t.Fatal(err)
		}
		got, want := decode(mine), decode(theirs)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("appendPush %q, json.Marshal %q", mine, theirs)
		}
		for i, p := range got {
			q := want[i]
			same := (p.Values == nil) == (q.Values == nil) && len(p.Values) == len(q.Values) &&
				(p.Label == nil) == (q.Label == nil) && (p.TS == nil) == (q.TS == nil) &&
				bits(p.Weight) == bits(q.Weight)
			for d := 0; same && d < len(p.Values); d++ {
				same = bits(p.Values[d]) == bits(q.Values[d])
			}
			if same && p.Label != nil {
				same = *p.Label == *q.Label
			}
			if same && p.TS != nil {
				same = bits(*p.TS) == bits(*q.TS)
			}
			if !same {
				t.Fatalf("point %d: appendPush decodes to %+v, json.Marshal to %+v", i, p, q)
			}
		}
	}
}

// TestPushRefusesNonFinite: NaN and ±Inf anywhere a point carries a float
// fail the push with json.Marshal's error before any request is sent.
func TestPushRefusesNonFinite(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(-1)
	for name, p := range map[string]Point{
		"values": {Values: []float64{1, math.NaN()}},
		"weight": {Values: []float64{1}, Weight: math.Inf(1)},
		"ts":     {Values: []float64{1}, TS: &inf},
	} {
		_, err := c.Push("s", []Point{{Values: []float64{0}}, p})
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) {
			t.Errorf("%s: err = %v, want a json.UnsupportedValueError", name, err)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("%d requests sent for unencodable points", n)
	}
}

// frameSink ACKs every frame and keeps a copy of the last one.
type frameSink struct {
	mu   sync.Mutex
	last wire.Frame
}

func (s *frameSink) IngestFrame(f *wire.Frame) wire.Reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = wire.Frame{Dim: f.Dim, Count: f.Count, Labels: slices.Clone(f.Labels), Weights: slices.Clone(f.Weights),
		TS: slices.Clone(f.TS), HasTS: slices.Clone(f.HasTS), Values: slices.Clone(f.Values)}
	return wire.Ack(0)
}

// TestWireCarriesTimestampsAndWideLabels: labels outside int32 and
// timestamps, which BRW1 frames could not carry, arrive intact; a point
// without a timestamp arrives without one.
func TestWireCarriesTimestampsAndWideLabels(t *testing.T) {
	sink := &frameSink{}
	wc, err := DialWire(startSinkListener(t, sink), WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	wide, neg, ts := 1<<31, -1<<31-1, 1.5
	if err := wc.Push("s", []Point{
		{Values: []float64{0}},
		{Values: []float64{1}, Label: &wide, TS: &ts},
		{Values: []float64{2}, Label: &neg, Weight: 2},
	}); err != nil {
		t.Fatalf("Push: %v", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	got := sink.last
	if got.Count != 3 || !slices.Equal(got.Labels, []int64{-1, 1 << 31, -1<<31 - 1}) ||
		!slices.Equal(got.Weights, []float64{1, 1, 2}) || !slices.Equal(got.Values, []float64{0, 1, 2}) ||
		!slices.Equal(got.HasTS, []bool{false, true, false}) || got.TS[1] != ts {
		t.Fatalf("sink saw %+v", got)
	}
}

// TestWireRefusesNonFinite: NaN and ±Inf in a value, the weight or the
// timestamp fail Push before anything is sent, as they fail Push over
// HTTP.
func TestWireRefusesNonFinite(t *testing.T) {
	sink := &ackSink{}
	wc, err := DialWire(startSinkListener(t, sink), WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	nan, negInf := math.NaN(), math.Inf(-1)
	for name, p := range map[string]Point{
		"NaN value":  {Values: []float64{1, math.NaN()}},
		"+Inf value": {Values: []float64{math.Inf(1), 1}},
		"-Inf value": {Values: []float64{1, math.Inf(-1)}},
		"Inf weight": {Values: []float64{1, 2}, Weight: math.Inf(1)},
		"NaN ts":     {Values: []float64{1, 2}, TS: &nan},
		"-Inf ts":    {Values: []float64{1, 2}, TS: &negInf},
	} {
		if err := wc.Push("s", []Point{{Values: []float64{0, 0}}, p}); err == nil {
			t.Errorf("Push accepted a point with a %s", name)
		}
	}
	if n := sink.frames.Load(); n != 0 {
		t.Fatalf("%d frames sent", n)
	}
}

// BenchmarkPushEncode encodes one benchmark-shaped ingest body (256
// labelled points, dim 10) with the append encoder PushContext uses and,
// for comparison, with json.Marshal as PushContext did before.
func BenchmarkPushEncode(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	pts := make([]Point, 256)
	for i := range pts {
		vals := make([]float64, 10)
		for d := range vals {
			vals[d] = rng.NormFloat64() * 10
		}
		label := rng.IntN(8)
		pts[i] = Point{Values: vals, Label: &label}
	}
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendPush(buf[:0], pts); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("json_marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blob, err := json.Marshal(map[string]any{"points": pts})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(blob)))
		}
	})
}

// TestHTTPAndWireDeliverSameBatch ties the client's two encoders to one
// batch: the JSON body PushContext sends (appendPush) decodes on the
// shared decoder's one-pass path, and checks to the same frame WireConn
// packs from the same points, floats bit for bit — labels absent or
// present (wider than int32 too), weights of 0, 1 and others, timestamps
// on some points, and values in each of the float writer's layouts. A
// batch the check refuses is refused alike, WireConn sending nothing.
func TestHTTPAndWireDeliverSameBatch(t *testing.T) {
	sink := &ackSink{}
	wc, err := DialWire(startSinkListener(t, sink), WireConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	deliver := func(round string, pts []Point) error {
		t.Helper()
		body, err := appendPush(nil, pts)
		if err != nil {
			t.Fatal(err)
		}
		var viaHTTP wire.Frame
		if !wire.DecodeCanonical(body, &viaHTTP) {
			t.Fatalf("client body %q fell back to encoding/json", body)
		}
		httpErr := viaHTTP.Check()
		frames := sink.frames.Load()
		wireErr := wc.Push("s", pts)
		var refused *WireError
		switch {
		case httpErr != nil:
			if !errors.As(wireErr, &refused) || refused.Msg != httpErr.Error() || sink.frames.Load() != frames {
				t.Fatalf("round %s: HTTP body refused with %v; WireConn: %v", round, httpErr, wireErr)
			}
		case wireErr != nil:
			t.Fatalf("round %s: WireConn: %v", round, wireErr)
		case !sameFrame(&viaHTTP, &wc.f):
			t.Fatalf("round %s: the body decodes to %+v, WireConn packs %+v", round, viaHTTP, wc.f)
		}
		return httpErr
	}
	ts := 1e-300
	for name, vals := range map[string][]float64{
		"e-form large":  {1e6, 1.2345678e8, 1e21, 1e23, -6.02214076e23, math.MaxFloat64},
		"e-form small":  {9.999e-5, 1e-5, -1.25e-7, 3.14159e-100, 0x1p-1022, 2.5e-308},
		"negative zero": {math.Copysign(0, -1), 0, math.Copysign(0, -1), 1, -1, 0.5},
		"subnormal":     {math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(1<<52 - 1), 1e-310, -4.9406564584124654e-322, 2.225e-309},
		"above 2^53":    {1 << 53, 1<<53 + 2, -(1<<54 + 4), 123456789012345680, 1e17, 1 << 63},
	} {
		pts := make([]Point, len(vals))
		for i, v := range vals {
			pts[i] = Point{Values: []float64{v, -v}, Weight: v, TS: &ts}
		}
		if err := deliver(name, pts); err != nil {
			t.Fatalf("round %s: refused: %v", name, err)
		}
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for round := 0; round < 300; round++ {
		pts := randPoints(rng, 1+rng.IntN(20))
		dim := 1 + rng.IntN(6)
		for i := range pts {
			pts[i].Values = append(make([]float64, 0, dim), pts[i].Values...)[:dim]
			switch rng.IntN(3) {
			case 0:
				pts[i].Weight = 0
			case 1:
				pts[i].Weight = 1
			}
		}
		if rng.IntN(10) == 0 { // a point the check refuses
			pts[rng.IntN(len(pts))].Values = make([]float64, rng.IntN(dim))
		}
		deliver(strconv.Itoa(round), pts)
	}
}

// sameFrame reports whether two frames hold the same batch, floats bit
// for bit, with the same optional columns present.
func sameFrame(a, b *wire.Frame) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	same := func(x, y []float64) bool { return (x == nil) == (y == nil) && slices.EqualFunc(x, y, bits) }
	return a.Dim == b.Dim && a.Count == b.Count && a.First == b.First && a.Indices == nil && b.Indices == nil &&
		a.Lens == nil && b.Lens == nil && slices.Equal(a.Labels, b.Labels) && slices.EqualFunc(a.Values, b.Values, bits) &&
		same(a.Weights, b.Weights) && same(a.TS, b.TS) && slices.Equal(a.HasTS, b.HasTS)
}
