package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// testFrame builds a frame with n points of the given dim, optionally
// carrying each section.
func testFrame(n, dim int, indices, labels, weights bool) *Frame {
	f := &Frame{Dim: dim, Count: n}
	f.Values = make([]float64, n*dim)
	for i := range f.Values {
		f.Values[i] = float64(i) * 0.5
	}
	if indices {
		f.Indices = make([]uint64, n)
		for i := range f.Indices {
			f.Indices[i] = uint64(i + 1)
		}
	}
	if labels {
		f.Labels = make([]int64, n)
		for i := range f.Labels {
			f.Labels[i] = int64(i%3) - 1
		}
	}
	if weights {
		f.Weights = make([]float64, n)
		for i := range f.Weights {
			f.Weights[i] = 1 + float64(i)/10
		}
	}
	return f
}

func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		indices, labels, weights bool
	}{
		{"values-only", false, false, false},
		{"indices", true, false, false},
		{"labels", false, true, false},
		{"weights", false, false, true},
		{"all", true, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := testFrame(7, 3, tc.indices, tc.labels, tc.weights)
			roundTrip(t, want)
		})
	}
}

// specials are float bit patterns a word codec must carry unchanged:
// quiet and signalling NaNs with payloads, both zeros, the subnormal and
// normal extremes and both infinities.
var specials = []float64{
	math.Float64frombits(0x7ff8000000000000), // quiet NaN
	math.Float64frombits(0xfff8000000000abc), // negative quiet NaN, payload
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0x7ff4000000c0ffee), // signalling NaN, payload
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64, math.Inf(1), math.Inf(-1),
}

// specialFrame is a frame of n points of the given dim with every float
// column (values, weights, timestamps) cycling through specials, each
// column from its own offset.
func specialFrame(n, dim int) *Frame {
	f := testFrame(n, dim, true, true, true)
	f.TS, f.HasTS = make([]float64, n), make([]bool, n)
	for i := range n {
		f.Weights[i] = specials[(i+1)%len(specials)]
		f.TS[i], f.HasTS[i] = specials[(i+2)%len(specials)], i%2 == 0
	}
	for i := range f.Values {
		f.Values[i] = specials[i%len(specials)]
	}
	return f
}

// TestFrameRoundTripColumns: timestamps, labels outside int32, a first
// index, every special float in every float column and frames without
// optional columns survive the round trip, on the host's word codec and
// on the word-by-word one alike.
func TestFrameRoundTripColumns(t *testing.T) {
	stamped := testFrame(3, 2, false, true, true)
	stamped.TS, stamped.HasTS = []float64{1.5, 0, 2.25}, []bool{true, false, true}
	wide := testFrame(3, 1, false, false, false)
	wide.Labels = []int64{1 << 40, math.MinInt64, -5}
	first := testFrame(4, 1, false, true, false)
	first.First = 1 << 50
	bare := testFrame(len(specials)/3, 3, false, false, false)
	bare.Values = specials
	for name, f := range map[string]*Frame{"timestamps": stamped, "wide-labels": wide, "first": first,
		"specials": specialFrame(13, 3), "specials-dim1": specialFrame(len(specials), 1), "specials-bare": bare} {
		t.Run(name, func(t *testing.T) { roundTrip(t, f) })
	}
}

// TestBatchRoundTripRagged: a ragged batch, which only a journal record
// may hold, round-trips through the batch codec on both word codecs.
func TestBatchRoundTripRagged(t *testing.T) {
	for name, f := range map[string]*Frame{
		"bare":     {Count: 3, Lens: []uint32{2, 0, 3}, Values: specials[:5]},
		"all":      {Count: 3, Indices: []uint64{4, 9, 11}, Labels: []int64{-1, 7, 1 << 40}, Weights: specials[1:4], TS: specials[6:9], HasTS: []bool{true, false, true}, Lens: []uint32{1, 4, 2}, Values: specials[3:10]},
		"one-wide": {Count: 1, First: 1, Lens: []uint32{uint32(len(specials))}, Values: specials},
	} {
		t.Run(name, func(t *testing.T) {
			var bulk, loop []byte
			var err error
			if bulk, err = AppendBatch(nil, f); err != nil {
				t.Fatal(err)
			}
			withLoopCodec(func() { loop, err = AppendBatch(nil, f) })
			if err != nil || !bytes.Equal(bulk, loop) {
				t.Fatalf("AppendBatch: %v; bulk %x, loop %x", err, bulk, loop)
			}
			var got, gotLoop Frame
			if err := DecodeBatch(bulk, &got); err != nil {
				t.Fatal(err)
			}
			withLoopCodec(func() { err = DecodeBatch(bulk, &gotLoop) })
			want := *f
			want.Labels = labelsOf(f)
			if err != nil || !sameFrame(&got, &want) || !sameFrame(&gotLoop, &want) {
				t.Fatalf("DecodeBatch: %v\n bulk %+v\n loop %+v\n want %+v", err, got, gotLoop, want)
			}
		})
	}
}

// withLoopCodec runs fn with the word-by-word codec, the path a
// big-endian host takes, in place of the host's.
func withLoopCodec(fn func()) {
	saved := hostLE
	hostLE = false
	defer func() { hostLE = saved }()
	fn()
}

// roundTrip encodes want as a frame, decodes it and compares every column
// bit for bit. The host's word codec and the word-by-word one must encode
// the same bytes and decode the same bits.
func roundTrip(t *testing.T, want *Frame) {
	t.Helper()
	buf, err := AppendFrame(nil, "sensor", want)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	var loop []byte
	withLoopCodec(func() { loop, err = AppendFrame(nil, "sensor", want) })
	if err != nil || !bytes.Equal(buf, loop) {
		t.Fatalf("word-by-word AppendFrame: %v; bytes differ: %x, want %x", err, loop, buf)
	}
	var got, gotLoop Frame
	rest, err := DecodeFrame(buf, &got)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeFrame left %d bytes", len(rest))
	}
	withLoopCodec(func() { _, err = DecodeFrame(buf, &gotLoop) })
	if err != nil || !sameFrame(&got, &gotLoop) {
		t.Fatalf("word-by-word DecodeFrame: %v; got %+v, want %+v", err, gotLoop, got)
	}
	if string(got.Name) != "sensor" {
		t.Errorf("name = %q", got.Name)
	}
	if got.Dim != want.Dim || got.Count != want.Count {
		t.Errorf("shape = (%d,%d), want (%d,%d)", got.Count, got.Dim, want.Count, want.Dim)
	}
	if got.First != want.First {
		t.Errorf("first = %d, want %d", got.First, want.First)
	}
	checkSlices(t, "indices", got.Indices, want.Indices)
	checkSlices(t, "labels", got.Labels, labelsOf(want))
	checkSlices(t, "weights", got.Weights, want.Weights)
	checkSlices(t, "timestamps", got.TS, want.TS)
	checkSlices(t, "has-ts", got.HasTS, want.HasTS)
	checkSlices(t, "values", got.Values, want.Values)
}

// labelsOf is f's label column as decoding fills it: -1 for every point
// when f has none.
func labelsOf(f *Frame) []int64 {
	if f.Labels != nil {
		return f.Labels
	}
	labels := make([]int64, f.Count)
	for i := range labels {
		labels[i] = -1
	}
	return labels
}

func checkSlices[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got nil=%v, want nil=%v", what, got == nil, want == nil)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		// Floats compare by bits, so NaNs, their payloads and -0 count.
		if g, ok := any(got[i]).(float64); ok && math.Float64bits(g) != math.Float64bits(any(want[i]).(float64)) ||
			!ok && got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestFrameRoundTripBackToBack decodes two frames packed in one buffer,
// the pipelining case the listener's buffered reader hits.
func TestFrameRoundTripBackToBack(t *testing.T) {
	a := testFrame(4, 2, false, true, false)
	b := testFrame(9, 1, true, false, true)
	buf, err := AppendFrame(nil, "a", a)
	if err != nil {
		t.Fatal(err)
	}
	buf, err = AppendFrame(buf, "bb", b)
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	rest, err := DecodeFrame(buf, &f)
	if err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if string(f.Name) != "a" || f.Count != 4 {
		t.Fatalf("first frame = %q/%d", f.Name, f.Count)
	}
	rest, err = DecodeFrame(rest, &f)
	if err != nil {
		t.Fatalf("second frame: %v", err)
	}
	if string(f.Name) != "bb" || f.Count != 9 || len(rest) != 0 {
		t.Fatalf("second frame = %q/%d, %d bytes left", f.Name, f.Count, len(rest))
	}
}

// TestDecodeReuseShrinks proves a large decode followed by a small one
// leaves no stale tail: section slices are resized per frame.
func TestDecodeReuseShrinks(t *testing.T) {
	big, _ := AppendFrame(nil, "s", testFrame(100, 4, true, true, true))
	small, _ := AppendFrame(nil, "s", testFrame(2, 1, false, false, false))
	var f Frame
	if _, err := DecodeFrame(big, &f); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(small, &f); err != nil {
		t.Fatal(err)
	}
	if f.Count != 2 || f.Dim != 1 || len(f.Values) != 2 {
		t.Fatalf("small decode shape = count %d dim %d values %d", f.Count, f.Dim, len(f.Values))
	}
	if f.Indices != nil || f.Weights != nil || f.TS != nil || f.HasTS != nil {
		t.Fatalf("optional sections not cleared: %v %v %v %v", f.Indices, f.Weights, f.TS, f.HasTS)
	}
	checkSlices(t, "labels", f.Labels, []int64{-1, -1})
}

// TestParseHeaderRejects: a header too short for BRW2, or opening with
// another magic, is refused with a message naming BRW2 (BRW1's magic:
// TestDecodeBRW1).
func TestParseHeaderRejects(t *testing.T) {
	good, err := AppendFrame(nil, "s", testFrame(2, 2, false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{'X'}, good[1:]...)
	for name, tc := range map[string]struct {
		buf  []byte
		want string
	}{
		"short": {good[:HeaderLen-1], "short header"},
		"magic": {bad, "bad magic"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := ParseHeader(tc.buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "BRW2") {
				t.Fatalf("ParseHeader error = %v, want substring %q and BRW2", err, tc.want)
			}
		})
	}
}

// TestParseHeaderRejectsV2 checks the BRW2 header.
func TestParseHeaderRejectsV2(t *testing.T) {
	good, err := AppendFrame(nil, "s", testFrame(2, 2, false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(mut func(h []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	for name, tc := range map[string]struct {
		buf  []byte
		want string
	}{
		"short":       {good[:HeaderLen-1], "short header"},
		"empty-name":  {mutate(func(b []byte) { b[4] = 0 }), "name length 0"},
		"long-name":   {mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 256) }), "name length 256"},
		"no-batch":    {mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 13) }), "cannot hold"},
		"body-shrunk": {mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 1) }), "cannot hold"},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseHeader(tc.buf); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ParseHeader error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestDecodeBodyRejects: a BRW2 batch outside a frame's shape — no
// points, too many, dim 0 or over MaxDim, ragged — is refused before the
// batch decoder allocates, and a batch whose columns do not add up is
// refused by it.
func TestDecodeBodyRejects(t *testing.T) {
	frame := func(count uint64, dim uint32, flags byte, rest int, tail ...byte) []byte {
		body := append([]byte("s"), binary.LittleEndian.AppendUint64(nil, count)...)
		body = binary.LittleEndian.AppendUint32(body, dim)
		body = append(append(append(body, flags), make([]byte, rest)...), tail...)
		buf := binary.LittleEndian.AppendUint32(nil, Magic)
		buf = binary.LittleEndian.AppendUint32(buf, 1)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
		return append(buf, body...)
	}
	for name, tc := range map[string]struct {
		buf  []byte
		want string
	}{
		"zero-count":      {frame(0, 1, batchFirst, 8), "count 0"},
		"count-over-max":  {frame(MaxCount+1, 1, batchFirst, 64), "count"},
		"zero-dim":        {frame(1, 0, batchFirst, 16), "dim 0"},
		"dim-over-max":    {frame(1, MaxDim+1, batchFirst, 64), "dim"},
		"ragged":          {frame(1, 1, batchFirst|batchRagged, 32), "ragged"},
		"unknown-flag":    {frame(1, 1, 0x80|batchFirst, 24), "flag"},
		"claims-more":     {frame(4, 1, batchFirst, 24), "claims"},
		"missing-values":  {frame(1, 2, batchFirst, 24), "values"},
		"trailing-bytes":  {frame(1, 1, batchFirst, 25), "do not add up"},
		"has-ts-not-bool": {frame(1, 1, batchFirst|batchTS, 24, 2, 0, 0, 0, 0, 0, 0, 0, 0), "has-ts"},
	} {
		t.Run(name, func(t *testing.T) {
			var f Frame
			if _, err := DecodeFrame(tc.buf, &f); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeFrame error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestDecodeBRW1: well-formed frames of the previous layout, as older
// clients send them, are refused from the 12 header bytes a listener reads
// first, before their body, and DecodeFrame refuses them whole.
func TestDecodeBRW1(t *testing.T) {
	for _, name := range []string{"valid-plain", "valid-indexed", "valid-all-flags"} {
		t.Run(name, func(t *testing.T) {
			buf := corpusEntry(t, name)
			if _, err := ParseHeader(buf[:HeaderLen]); err == nil || !strings.Contains(err.Error(), "send BRW2") {
				t.Fatalf("ParseHeader error = %v, want a refusal naming BRW2", err)
			}
			var f Frame
			if rest, err := DecodeFrame(buf, &f); err == nil || len(rest) != len(buf) || f.Count != 0 {
				t.Fatalf("DecodeFrame: %v, %d of %d bytes left, frame %+v", err, len(rest), len(buf), f)
			}
		})
	}
}

// corpusEntry reads one checked-in FuzzDecodeFrame corpus file.
func corpusEntry(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeFrame", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("corpus entry %s: %v", name, err)
	}
	return []byte(s)
}

// sameFrame compares two frames column by column, floats bit for bit, so
// NaNs compare equal to themselves.
func sameFrame(a, b *Frame) bool {
	bits := func(xs []float64) []uint64 {
		if xs == nil {
			return nil
		}
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return string(a.Name) == string(b.Name) && a.Dim == b.Dim && a.Count == b.Count && a.First == b.First &&
		reflect.DeepEqual(a.Indices, b.Indices) && reflect.DeepEqual(a.Labels, b.Labels) &&
		reflect.DeepEqual(bits(a.Weights), bits(b.Weights)) && reflect.DeepEqual(bits(a.TS), bits(b.TS)) &&
		reflect.DeepEqual(a.HasTS, b.HasTS) && reflect.DeepEqual(a.Lens, b.Lens) &&
		reflect.DeepEqual(bits(a.Values), bits(b.Values))
}

func TestDecodeFrameTruncated(t *testing.T) {
	buf, err := AppendFrame(nil, "s", testFrame(3, 2, true, false, false))
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	for cut := HeaderLen; cut < len(buf); cut += 7 {
		if _, err := DecodeFrame(buf[:cut], &f); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded successfully", cut, len(buf))
		}
	}
}

func TestAppendFrameValidates(t *testing.T) {
	ok := testFrame(2, 2, false, false, false)
	cases := []struct {
		name string
		mut  func(f *Frame) (string, *Frame)
	}{
		{"empty-name", func(f *Frame) (string, *Frame) { return "", f }},
		{"long-name", func(f *Frame) (string, *Frame) { return strings.Repeat("n", 256), f }},
		{"zero-dim", func(f *Frame) (string, *Frame) { f.Dim = 0; return "s", f }},
		{"zero-count", func(f *Frame) (string, *Frame) { f.Count = 0; return "s", f }},
		{"values-mismatch", func(f *Frame) (string, *Frame) { f.Values = f.Values[:3]; return "s", f }},
		{"indices-mismatch", func(f *Frame) (string, *Frame) { f.Indices = []uint64{1}; return "s", f }},
		{"labels-mismatch", func(f *Frame) (string, *Frame) { f.Labels = []int64{0}; return "s", f }},
		{"weights-mismatch", func(f *Frame) (string, *Frame) { f.Weights = []float64{1}; return "s", f }},
		{"ts-mismatch", func(f *Frame) (string, *Frame) { f.TS, f.HasTS = []float64{1, 2}, []bool{true}; return "s", f }},
		{"first-and-indices", func(f *Frame) (string, *Frame) { f.First, f.Indices = 3, []uint64{3, 4}; return "s", f }},
		{"ragged", func(f *Frame) (string, *Frame) { f.Dim, f.Lens = 0, []uint32{1, 3}; return "s", f }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := *ok
			cp.Values = append([]float64(nil), ok.Values...)
			name, f := tc.mut(&cp)
			if _, err := AppendFrame(nil, name, f); err == nil {
				t.Fatal("AppendFrame accepted an invalid frame")
			}
		})
	}
}

func TestReplyRoundTrip(t *testing.T) {
	for _, want := range []Reply{
		Ack(0),
		Ack(123456),
		Ack(-5),      // clamped to 0
		Ack(1 << 40), // saturated at MaxUint32
		Nack(1000),
		Errorf("stream %q not found", "x"),
		{Status: StatusError, Msg: strings.Repeat("m", 400)}, // truncated to 255
	} {
		buf := AppendReply(nil, want)
		got, rest, err := DecodeReply(buf)
		if err != nil {
			t.Fatalf("DecodeReply(%+v): %v", want, err)
		}
		if len(rest) != 0 {
			t.Fatalf("DecodeReply left %d bytes", len(rest))
		}
		if got.Status != want.Status || got.RetryMS != want.RetryMS {
			t.Fatalf("reply = %+v, want %+v", got, want)
		}
		if len(want.Msg) > 255 {
			if got.Msg != want.Msg[:255] {
				t.Fatalf("long message not truncated: %d bytes", len(got.Msg))
			}
		} else if got.Msg != want.Msg {
			t.Fatalf("msg = %q, want %q", got.Msg, want.Msg)
		}
	}
	if r := Ack(-5); r.Pending != 0 {
		t.Fatalf("Ack(-5).Pending = %d", r.Pending)
	}
	if r := Ack(1 << 40); r.Pending != 1<<32-1 {
		t.Fatalf("Ack(2^40).Pending = %d", r.Pending)
	}
}

func TestDecodeReplyTruncated(t *testing.T) {
	buf := AppendReply(nil, Errorf("boom"))
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeReply(buf[:cut]); err == nil {
			t.Fatalf("reply truncated at %d decoded successfully", cut)
		}
	}
}

// TestDecodeFrameZeroAlloc is the steady-state guarantee: decoding into a
// warm Frame allocates nothing.
func TestDecodeFrameZeroAlloc(t *testing.T) {
	buf, err := AppendFrame(nil, "sensor", testFrame(256, 4, true, true, true))
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if _, err := DecodeFrame(buf, &f); err != nil { // warm the slices
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFrame(buf, &f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeFrame allocates %.1f times per frame, want 0", allocs)
	}
}

// BenchmarkWireDecodeFrame is the acceptance benchmark: 0 allocs/op on
// the steady state, points/s for the decode alone.
func BenchmarkWireDecodeFrame(b *testing.B) {
	const points, dim = 256, 4
	buf, err := AppendFrame(nil, "sensor", testFrame(points, dim, false, true, false))
	if err != nil {
		b.Fatal(err)
	}
	var f Frame
	if _, err := DecodeFrame(buf, &f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(buf, &f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkWireEncodeFrame measures the client-side encode into a reused
// buffer.
func BenchmarkWireEncodeFrame(b *testing.B) {
	const points, dim = 256, 4
	f := testFrame(points, dim, false, true, false)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], "sensor", f)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// TestEncodedLayout pins the exact byte layout so the format cannot
// drift silently: one-point frames are compared field by field, encoded
// and decoded on the host's word codec and on the word-by-word one.
func TestEncodedLayout(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *Frame
		want []byte
	}{{
		name: "indexed",
		f: &Frame{Dim: 2, Count: 1, Values: []float64{1, 2}, Indices: []uint64{7}, Labels: []int64{-2},
			TS: []float64{0.5}, HasTS: []bool{true}},
		want: []byte{
			0x42, 0x52, 0x57, 0x32, // "BRW2"
			2, 0, 0, 0, // nameLen
			56, 0, 0, 0, // bodyLen = 2 name + 13 batch header + 8 index + 8 label + 9 timestamp + 16 values
			'a', 'b',
			1, 0, 0, 0, 0, 0, 0, 0, // count
			2, 0, 0, 0, // dim
			batchTS,                // flags: explicit indices, timestamps
			7, 0, 0, 0, 0, 0, 0, 0, // index
			0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // label -2
			0, 0, 0, 0, 0, 0, 0xe0, 0x3f, // timestamp 0.5
			1,                            // has-ts
			0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // 1.0
			0, 0, 0, 0, 0, 0, 0x00, 0x40, // 2.0
		},
	}, {
		name: "specials",
		f: &Frame{Dim: 2, Count: 1, First: 3, Weights: []float64{math.Float64frombits(0x7ff0000000000001)},
			TS: []float64{math.SmallestNonzeroFloat64}, HasTS: []bool{false}, Values: []float64{math.Copysign(0, -1), math.Inf(1)}},
		want: []byte{
			0x42, 0x52, 0x57, 0x32, // "BRW2"
			2, 0, 0, 0, // nameLen
			64, 0, 0, 0, // bodyLen = 2 name + 13 batch header + 8 first + 8 label + 8 weight + 9 timestamp + 16 values
			'a', 'b',
			1, 0, 0, 0, 0, 0, 0, 0, // count
			2, 0, 0, 0, // dim
			batchFirst | batchWeights | batchTS, // flags
			3, 0, 0, 0, 0, 0, 0, 0,              // first index
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // no labels column: -1
			1, 0, 0, 0, 0, 0, 0xf0, 0x7f, // weight: signalling NaN
			1, 0, 0, 0, 0, 0, 0, 0, // timestamp: smallest subnormal
			0,                         // has-ts
			0, 0, 0, 0, 0, 0, 0, 0x80, // -0
			0, 0, 0, 0, 0, 0, 0xf0, 0x7f, // +Inf
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, codec := range []func(func()){func(fn func()) { fn() }, withLoopCodec} {
				var buf []byte
				var err error
				var got Frame
				codec(func() { buf, err = AppendFrame(nil, "ab", tc.f) })
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, tc.want) {
					t.Fatalf("layout drifted:\n got %x\nwant %x", buf, tc.want)
				}
				codec(func() { _, err = DecodeFrame(tc.want, &got) })
				want := *tc.f
				want.Name, want.Labels = []byte("ab"), labelsOf(tc.f)
				if err != nil || !sameFrame(&got, &want) {
					t.Fatalf("DecodeFrame: %v\n got %+v\nwant %+v", err, got, want)
				}
			}
		})
	}
}

// TestCorpusVerdicts pins what the checked-in corpus entries exercise:
// the valid BRW2 ones decode whole, each BRW2 near miss is refused for its
// own reason, and every entry written before BRW2 is refused by a message
// naming BRW2.
func TestCorpusVerdicts(t *testing.T) {
	verdicts := map[string]string{
		"valid-plain":         "send BRW2",
		"valid-indexed":       "send BRW2",
		"valid-all-flags":     "send BRW2",
		"valid-long-name":     "send BRW2",
		"bad-flags":           "send BRW2",
		"bodylen-inflated":    "send BRW2",
		"count-over-limit":    "send BRW2",
		"empty-name":          "send BRW2",
		"second-frame-torn":   "send BRW2",
		"truncated-body":      "send BRW2",
		"two-frames-piped":    "send BRW2",
		"bad-magic":           "want BRW2",
		"header-only-ones":    "want BRW2",
		"empty":               "BRW2 header",
		"v2-valid-plain":      "",
		"v2-timestamps":       "",
		"v2-int64-labels":     "",
		"v2-first-index":      "",
		"v2-indices":          "",
		"v2-ragged-refused":   "ragged",
		"v2-has-ts-not-bool":  "has-ts",
		"v2-bodylen-inflated": "truncated",
		"v2-count-over-limit": "count",
		"v2-truncated-body":   "truncated",
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzDecodeFrame"))
	if err != nil || len(entries) != len(verdicts) {
		t.Fatalf("corpus holds %d entries (%v), %d verdicts pinned", len(entries), err, len(verdicts))
	}
	for name, want := range verdicts {
		t.Run(name, func(t *testing.T) {
			var f Frame
			rest, err := DecodeFrame(corpusEntry(t, name), &f)
			switch {
			case want == "" && (err != nil || len(rest) != 0):
				t.Fatalf("DecodeFrame: %v, %d bytes left", err, len(rest))
			case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
				t.Fatalf("DecodeFrame error = %v, want substring %q", err, want)
			}
			if name == "v2-ragged-refused" {
				// ...though its batch is a valid journal record.
				if err := DecodeBatch(corpusEntry(t, name)[HeaderLen+4:], &f); err != nil || f.Lens == nil {
					t.Fatalf("DecodeBatch: %v, lens %v", err, f.Lens)
				}
			}
		})
	}
}
