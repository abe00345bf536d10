package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// ingestFallbacks are bodies DecodeCanonical must hand to encoding/json:
// each is outside the canonical shape, whether encoding/json then accepts
// it or not.
var ingestFallbacks = []string{
	``,
	`null`,
	`{"points":null}`,
	`[]`,
	`{"points":[{"values":null}]}`,
	`{"points":[{"values":[1],"label":null}]}`,
	`{"points":[{"Values":[1,2]}]}`,
	`{"Points":[{"values":[1,2]}]}`,
	`{"points":[{"values":[1],"values":[2]}]}`,
	`{"points":[{"values":[1],"label":1,"label":2}]}`,
	`{"points":[{"values":[1]}],"points":[]}`,
	`{"points":[{"values":[1],"note":"x"}]}`,
	`{"points":[{"values":[1],"label":1.0}]}`,
	`{"points":[{"values":[1],"label":1e2}]}`,
	`{"points":[{"values":[1],"label":99999999999999999999}]}`,
	`{"points":[{"values":[1e400]}]}`,
	`{"points":[{"values":[1],"weight":-1e999}]}`,
	`{"points":[{"values":[1]}]} trailing`,
	`{"points":[{"values":[1]}]}{}`,
	`{"points":[{"values":[01]}]}`,
	`{"points":[{"values":[1.]}]}`,
	`{"points":[{"values":[.5]}]}`,
	`{"points":[{"values":[+1]}]}`,
	`{"points":[{"values":[1e]}]}`,
	`{"points":[{"values":[NaN]}]}`,
	`{"points":[{"values":["1"]}]}`,
	`{"points":[{"values":[1,]}]}`,
	`{"points":[{"values":[1]},]}`,
	`{"points":[{"values":[1]}`,
	`{"points":[{"values":[1],"points":[]}]}`,
	`{"points":[{"values":[1],"ts ":0}]}`,
	`{"points ":[{"values":[1]}]}`,
}

// ingestCanonical are bodies inside the canonical shape, edge cases
// included: no points, points without values, ragged points, labels
// outside int32, weights of 0 and timestamps on some points.
var ingestCanonical = []string{
	`{}`,
	`{"points":[]}`,
	`{"points":[{}]}`,
	`{"points":[{"values":[]}]}`,
	`{"points":[{"values":[1,2],"label":1}]}`,
	" \t\r\n{ \"points\" : [ { \"values\" : [ 1 , -0 , 0.5e-3 ] , \"ts\" : 7 } ] }\n",
	`{"points":[{"ts":2.5,"weight":0.5,"label":-3,"values":[1E+2,-0.0,5e-324,1.7976931348623157e308]}]}`,
	`{"points":[{"values":[0.1,0.2]},{"values":[0.3,0.4],"label":4294967299},{"values":[1e-400]}]}`,
	`{"points":[{"values":[1],"label":-0,"weight":0}]}`,
}

// benchmarkBody is a body shaped like the end-to-end benchmark's: n
// labelled points of dimension dim with random 17-digit values.
func benchmarkBody(n, dim int) []byte {
	rng := rand.New(rand.NewPCG(7, 7))
	pts := make([]IngestPoint, n)
	for i := range pts {
		vals := make([]float64, dim)
		for d := range vals {
			vals[d] = rng.NormFloat64() * 10
		}
		label := rng.IntN(8)
		pts[i] = IngestPoint{Values: vals, Label: &label}
	}
	blob, err := json.Marshal(IngestRequest{Points: pts})
	if err != nil {
		panic(err)
	}
	return blob
}

// checkFastPath fails t unless encoding/json accepts a body
// DecodeCanonical accepted and SetPoints builds the same frame from its
// decode, and the frame's columns agree on its size.
func checkFastPath(t *testing.T, body []byte, got *Frame) {
	t.Helper()
	var req IngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("DecodeCanonical accepted %q, encoding/json refuses it: %v", body, err)
	}
	var want Frame
	want.SetPoints(req.Points)
	if !sameFrame(got, &want) {
		t.Fatalf("DecodeCanonical(%q) = %+v, encoding/json decodes %+v", body, got, want)
	}
	if _, err := AppendBatch(nil, got); err != nil {
		t.Fatalf("DecodeCanonical(%q) = %+v: %v", body, got, err)
	}
}

func TestDecodeIngestFallsBack(t *testing.T) {
	for _, body := range ingestFallbacks {
		if DecodeCanonical([]byte(body), new(Frame)) {
			t.Errorf("DecodeCanonical(%q) took the fast path, want the encoding/json fallback", body)
		}
	}
}

func TestDecodeIngestCanonical(t *testing.T) {
	for _, body := range append(ingestCanonical, string(benchmarkBody(256, 10))) {
		var got Frame
		if !DecodeCanonical([]byte(body), &got) {
			t.Errorf("DecodeCanonical(%.80q) fell back, want the fast path", body)
			continue
		}
		checkFastPath(t, []byte(body), &got)
	}
}

// TestDecodeIngestReusesFrame: decoding into a frame that held another
// batch gives what decoding into a fresh frame gives, on the fast path
// and the fallback alike.
func TestDecodeIngestReusesFrame(t *testing.T) {
	bodies := append(append([]string{string(benchmarkBody(8, 3))}, ingestCanonical...), ingestFallbacks...)
	var reused Frame
	for _, body := range append(bodies, bodies...) {
		var fresh Frame
		errFresh, errReused := ReadIngest(strings.NewReader(body), &fresh), ReadIngest(strings.NewReader(body), &reused)
		if (errFresh == nil) != (errReused == nil) {
			t.Fatalf("%q: a reused frame decodes with %v, a fresh one with %v", body, errReused, errFresh)
		}
		if errFresh != nil {
			continue
		}
		// Equal encodings: a column emptied for reuse and a nil one encode
		// alike.
		want, err1 := AppendBatch(nil, &fresh)
		got, err2 := AppendBatch(nil, &reused)
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			t.Fatalf("%q: a reused frame decodes to %+v, a fresh one to %+v", body, reused, fresh)
		}
	}
}

// FuzzDecodeIngest: whatever DecodeCanonical accepts, encoding/json
// accepts too and decodes to the same frame, bit for bit.
func FuzzDecodeIngest(f *testing.F) {
	f.Add(benchmarkBody(4, 3))
	for _, body := range append(ingestFallbacks, ingestCanonical...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got Frame
		if DecodeCanonical(body, &got) {
			checkFastPath(t, body, &got)
		}
	})
}

// TestCheck: the one batch check refuses with the messages every ingest
// path answers, and normalizes what it admits to the journaled batch.
func TestCheck(t *testing.T) {
	one, nan := 1.5, math.NaN()
	pts := func(p ...IngestPoint) *Frame {
		var f Frame
		f.SetPoints(p)
		return &f
	}
	v := func(vals ...float64) IngestPoint { return IngestPoint{Values: vals} }
	// lanes is 5 points of dim 3 whose value i is x.
	lanes := func(i int, x float64) *Frame {
		f := &Frame{Dim: 3, Count: 5, Values: make([]float64, 15)}
		f.Values[i] = x
		return f
	}
	for _, tc := range []struct {
		f    *Frame
		want string
	}{
		{pts(), "no points"},
		{pts(v(), v(1)), "point 0 has no values"},
		{pts(v(1), v()), "point 1 has no values"},
		{pts(v(), v()), "point 0 has no values"},
		{pts(v(1), v(1, 2)), "point 1 has dim 2, batch has 1"},
		{pts(v(1), v(nan)), "point 1 has a non-finite value, weight or timestamp"},
		{pts(v(1), IngestPoint{Values: []float64{1}, Weight: math.Inf(1)}), "point 1 has a non-finite value, weight or timestamp"},
		{pts(IngestPoint{Values: []float64{1}, TS: &nan}), "point 0 has a non-finite value, weight or timestamp"},
		{&Frame{Dim: 2, Count: 1, Values: []float64{1, math.Inf(-1)}}, "point 0 has a non-finite value, weight or timestamp"},
		// 15 values, not a multiple of Check's four lanes.
		{lanes(0, nan), "point 0 has a non-finite value, weight or timestamp"},
		{lanes(7, math.Inf(1)), "point 2 has a non-finite value, weight or timestamp"},
		{lanes(14, nan), "point 4 has a non-finite value, weight or timestamp"},
		{lanes(12, math.Inf(-1)), "point 4 has a non-finite value, weight or timestamp"},
		{&Frame{Dim: 1, Count: 4, Values: []float64{1, 2, 3, 4}, Weights: []float64{2, 0, nan, 3}}, "point 2 has a non-finite value, weight or timestamp"},
		{&Frame{Dim: 1, Count: 3, Values: []float64{1, 2, 3}, TS: []float64{1, 2, math.Inf(1)}, HasTS: []bool{true, false, false}}, "point 2 has a non-finite value, weight or timestamp"},
		// The first bad point names the error, whatever its fault.
		{&Frame{Dim: 1, Count: 3, Lens: []uint32{1, 0, 1}, Values: []float64{1, nan}}, "point 1 has no values"},
		{&Frame{Dim: 1, Count: 3, Values: []float64{1, 2, nan}, Weights: []float64{1, math.Inf(1), 1}}, "point 1 has a non-finite value, weight or timestamp"},
	} {
		if err := tc.f.Check(); err == nil || err.Error() != tc.want {
			t.Errorf("Check(%+v) = %v, want %q", tc.f, err, tc.want)
		}
	}

	for _, tc := range []struct {
		f, want *Frame
	}{
		{pts(v(1), IngestPoint{Values: []float64{2}, Weight: 1}),
			&Frame{Dim: 1, Count: 2, Values: []float64{1, 2}, Labels: []int64{-1, -1}}},
		{pts(v(1), IngestPoint{Values: []float64{2}, Weight: 3}),
			&Frame{Dim: 1, Count: 2, Values: []float64{1, 2}, Labels: []int64{-1, -1}, Weights: []float64{1, 3}}},
		{pts(v(1), IngestPoint{Values: []float64{2}, TS: &one}),
			&Frame{Dim: 1, Count: 2, Values: []float64{1, 2}, Labels: []int64{-1, -1}, TS: []float64{0, 1.5}, HasTS: []bool{false, true}}},
		{&Frame{Dim: 1, Count: 2, Values: []float64{1, 2}, TS: []float64{0, 0}, HasTS: []bool{false, false}},
			&Frame{Dim: 1, Count: 2, Values: []float64{1, 2}}},
		{&Frame{Dim: 1, Count: 3, Values: []float64{1, 2, 3}, Weights: []float64{2, 0, 0.5}},
			&Frame{Dim: 1, Count: 3, Values: []float64{1, 2, 3}, Weights: []float64{2, 1, 0.5}}},
		{&Frame{Dim: 1, Count: 3, Values: []float64{1, 2, 3}, Weights: []float64{0, 1, 0}},
			&Frame{Dim: 1, Count: 3, Values: []float64{1, 2, 3}}},
		{&Frame{Dim: 2, Count: 2, Lens: []uint32{2, 2}, Values: []float64{1, 2, 3, 4}},
			&Frame{Dim: 2, Count: 2, Values: []float64{1, 2, 3, 4}}},
	} {
		for range 2 { // a checked frame checks unchanged
			if err := tc.f.Check(); err != nil || !sameFrame(tc.f, tc.want) {
				t.Fatalf("Check: %v, frame %+v, want %+v", err, tc.f, tc.want)
			}
		}
	}
}

// TestCheckMatchesCheckPoints: on random batches with faults at random
// points, Check gives checkPoints' verdict and leaves the batch as
// checkPoints leaves it.
func TestCheckMatchesCheckPoints(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, math.SmallestNonzeroFloat64}
	for range 5000 {
		n, dim := 1+rng.IntN(9), 1+rng.IntN(6)
		f := &Frame{Dim: dim, Count: n, Values: make([]float64, n*dim)}
		for i := range f.Values {
			f.Values[i] = rng.NormFloat64()
		}
		if rng.IntN(2) == 0 {
			f.Weights = make([]float64, n)
			for i := range f.Weights {
				f.Weights[i] = float64(rng.IntN(3))
			}
		}
		if rng.IntN(2) == 0 {
			f.TS, f.HasTS = make([]float64, n), make([]bool, n)
			for i := range f.TS {
				f.TS[i], f.HasTS[i] = float64(i), rng.IntN(4) == 0
			}
		}
		if rng.IntN(3) == 0 {
			f.Lens = make([]uint32, n)
			for i := range f.Lens {
				f.Lens[i] = uint32(dim)
			}
			f.Lens[rng.IntN(n)] = uint32(rng.IntN(dim + 1))
			f.Dim = 0
		}
		for range rng.IntN(3) {
			col := [][]float64{f.Values, f.Weights, f.TS}[rng.IntN(3)]
			if len(col) > 0 {
				col[rng.IntN(len(col))] = odd[rng.IntN(len(odd))]
			}
		}
		var want Frame
		want.CopyFrom(f)
		wantErr, gotErr := want.checkPoints(), f.Check()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || wantErr == nil && !sameFrame(f, &want) {
			t.Fatalf("Check = %v, frame %+v; checkPoints = %v, frame %+v", gotErr, f, wantErr, want)
		}
	}
}

// BenchmarkCheck checks one benchmark-shaped batch (256 labelled points,
// dim 10) with a weights column Check keeps as it is.
func BenchmarkCheck(b *testing.B) {
	var f Frame
	if !DecodeCanonical(benchmarkBody(256, 10), &f) {
		b.Fatal("benchmark body fell back to encoding/json")
	}
	f.Weights = make([]float64, f.Count)
	for i := range f.Weights {
		f.Weights[i] = float64(1 + i%2)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestDecode decodes one benchmark-shaped ingest body (256
// labelled points, dim 10): fast is the one-pass decoder ReadIngest
// tries first, encoding_json the json.Decoder it falls back to.
func BenchmarkIngestDecode(b *testing.B) {
	body := benchmarkBody(256, 10)
	b.Run("fast", func(b *testing.B) {
		var f Frame
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if !DecodeCanonical(body, &f) {
				b.Fatal("benchmark body fell back to encoding/json")
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		var f Frame
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req IngestRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			f.SetPoints(req.Points)
		}
	})
}
