package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"biasedres/internal/stream"
	"biasedres/internal/wire"
)

// testOp is one point of a batch with its optional timestamp, and
// testRecord one batch as ops: these tests' view of a batch, and the gob
// payload of a BRESJRN1 record. frameOf packs ops into a batch as the
// server seals one, and opsOf unpacks a batch into ops.
type testOp struct {
	P     stream.Point
	TS    float64
	HasTS bool
}

type testRecord struct {
	Ops []testOp
}

// Batch layout constants, pinned here so a drift in the on-disk format
// fails these tests.
const (
	recSeqIndex    = 1
	recTimestamps  = 4
	recRagged      = 8
	recHeaderBytes = 8 + 4 + 1
)

// frameOf packs ops into a batch the way the server seals one: indices as
// the first one when they are consecutive, and the weight, timestamp and
// value-count columns only when some op needs them.
func frameOf(ops []testOp) *wire.Frame {
	n := len(ops)
	f := &wire.Frame{Count: n, Labels: make([]int64, n)}
	idx, w, lens := make([]uint64, n), make([]float64, n), make([]uint32, n)
	ts, has := make([]float64, n), make([]bool, n)
	consecutive, weighted, stamped, ragged := true, false, false, false
	for i, op := range ops {
		idx[i], f.Labels[i], w[i], lens[i] = op.P.Index, int64(op.P.Label), op.P.Weight, uint32(len(op.P.Values))
		ts[i], has[i] = op.TS, op.HasTS
		f.Values = append(f.Values, op.P.Values...)
		consecutive = consecutive && op.P.Index == ops[0].P.Index+uint64(i)
		weighted = weighted || math.Float64bits(op.P.Weight) != math.Float64bits(1)
		stamped = stamped || op.HasTS || math.Float64bits(op.TS) != 0
		ragged = ragged || lens[i] != lens[0]
	}
	f.Indices = idx
	if n > 0 {
		f.Dim = int(lens[0])
		if consecutive {
			f.First, f.Indices = idx[0], nil
		}
	}
	if weighted {
		f.Weights = w
	}
	if stamped {
		f.TS, f.HasTS = ts, has
	}
	if ragged {
		f.Dim, f.Lens = 0, lens
	}
	return f
}

// decodeRecord decodes one v2 record payload into a batch of its own.
func decodeRecord(p []byte) (*wire.Frame, error) {
	f := new(wire.Frame)
	return f, wire.DecodeBatch(p, f)
}

// opsOf unpacks a batch into ops.
func opsOf(f *wire.Frame) []testOp {
	ops := make([]testOp, f.Count)
	for i, p := range f.Points(nil) {
		ops[i].P = p
		if f.TS != nil {
			ops[i].TS, ops[i].HasTS = f.TS[i], f.HasTS[i]
		}
	}
	return ops
}

// sameOps compares op slices bit for bit, so NaN weights and negative-zero
// timestamps must survive too. nil and empty Values are the same point.
func sameOps(a, b []testOp) bool {
	if len(a) != len(b) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if x.P.Index != y.P.Index || x.P.Label != y.P.Label || x.HasTS != y.HasTS ||
			bits(x.P.Weight) != bits(y.P.Weight) || bits(x.TS) != bits(y.TS) ||
			len(x.P.Values) != len(y.P.Values) {
			return false
		}
		for k := range x.P.Values {
			if bits(x.P.Values[k]) != bits(y.P.Values[k]) {
				return false
			}
		}
	}
	return true
}

// roundtrip frames ops as one v2 record, checks the frame, and decodes it.
func roundtrip(t *testing.T, ops []testOp) []testOp {
	t.Helper()
	frame, err := appendRecord(nil, frameOf(ops))
	if err != nil {
		t.Fatalf("appendRecord: %v", err)
	}
	payload := frame[8:]
	if n := binary.LittleEndian.Uint32(frame); int(n) != len(payload) {
		t.Fatalf("frame length %d, payload is %d bytes", n, len(payload))
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
		t.Fatal("frame CRC does not match its payload")
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		t.Fatalf("decodeRecord: %v", err)
	}
	return opsOf(rec)
}

func pt(index uint64, label int, weight float64, values ...float64) stream.Point {
	return stream.Point{Index: index, Label: label, Weight: weight, Values: values}
}

// edgeCases are batches at the edges of every column: ragged dims, empty
// values, extreme labels, special floats, timestamps without has-ts, and
// indices that are not, or only across the wrap, consecutive.
func edgeCases() map[string][]testOp {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	return map[string][]testOp{
		"single op":   {{P: pt(1, -1, 1, 2.5)}},
		"ragged dims": {{P: pt(1, 0, 1, 1, 2, 3)}, {P: pt(2, 0, 1)}, {P: pt(3, 0, 1, 4)}, {P: pt(4, 0, 1, 5, 6, 7, 8, 9)}},
		"empty values": {
			{P: stream.Point{Index: 7, Label: -1, Weight: 1}},
			{P: stream.Point{Index: 8, Label: -1, Weight: 1, Values: []float64{}}},
		},
		"label extremes": {
			{P: pt(1, -1, 1, 0)}, {P: pt(2, 0, 1, 0)},
			{P: pt(3, math.MinInt64, 1, 0)}, {P: pt(4, math.MaxInt64, 1, 0)},
		},
		"weight specials": {
			{P: pt(1, 1, 0, 1)}, {P: pt(2, 1, nan, 1)}, {P: pt(3, 1, inf, 1)},
			{P: pt(4, 1, -inf, 1)}, {P: pt(5, 1, negZero, 1)}, {P: pt(6, 1, 1, 1)},
		},
		"value specials": {{P: pt(1, 2, 1, nan, inf, -inf, negZero, math.SmallestNonzeroFloat64)}},
		"ts without has-ts": {
			{P: pt(1, -1, 1, 1), TS: 5},
			{P: pt(2, -1, 1, 1), TS: 0, HasTS: true},
			{P: pt(3, -1, 1, 1), TS: negZero},
			{P: pt(4, -1, 1, 1), TS: 9.25, HasTS: true},
		},
		"non-consecutive indices": {
			{P: pt(5, 0, 1, 1)}, {P: pt(3, 0, 1, 2)}, {P: pt(9, 0, 1, 3)}, {P: pt(math.MaxUint64, 0, 1, 4)},
		},
		"consecutive across wrap": {
			{P: pt(math.MaxUint64-1, 0, 1, 1)}, {P: pt(math.MaxUint64, 0, 1, 2)}, {P: pt(0, 0, 1, 3)},
		},
		"repeated index": {{P: pt(4, 0, 1, 1)}, {P: pt(4, 0, 1, 2)}},
	}
}

func TestRecordRoundtripEdgeCases(t *testing.T) {
	for name, ops := range edgeCases() {
		t.Run(name, func(t *testing.T) {
			if got := roundtrip(t, ops); !sameOps(got, ops) {
				t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, ops)
			}
		})
	}
}

// TestRecordRoundtripProperty round-trips random batches drawn from the
// edge values above, in every combination of the optional columns.
func TestRecordRoundtripProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	floats := []float64{0, 1, -1, 0.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	labels := []int{-1, 0, 1, 7, math.MinInt64, math.MaxInt64}
	pick := func(xs []float64) float64 { return xs[r.IntN(len(xs))] }
	for iter := 0; iter < 2000; iter++ {
		n := 1 + r.IntN(40)
		dim := r.IntN(6)
		ragged, seq := r.IntN(3) == 0, r.IntN(2) == 0
		weighted, timed := r.IntN(2) == 0, r.IntN(2) == 0
		next := r.Uint64()
		ops := make([]testOp, n)
		for i := range ops {
			op := &ops[i]
			op.P.Index = next
			next++
			if !seq {
				next += uint64(r.IntN(3))
			}
			op.P.Label = labels[r.IntN(len(labels))]
			op.P.Weight = 1
			if weighted && r.IntN(2) == 0 {
				op.P.Weight = pick(floats)
			}
			if timed {
				op.TS, op.HasTS = pick(floats), r.IntN(2) == 0
			}
			k := dim
			if ragged {
				k = r.IntN(6)
			}
			for range k {
				op.P.Values = append(op.P.Values, pick(floats))
			}
		}
		if got := roundtrip(t, ops); !sameOps(got, ops) {
			t.Fatalf("iteration %d: roundtrip mismatch:\n got %+v\nwant %+v", iter, got, ops)
		}
	}
}

// TestRecordLayoutSize pins the payload size of the common batch shape —
// consecutive indices, unit weights, no timestamps, one dim for every op —
// to count×(8+8·dim) plus a 21-byte header: labels and values, nothing
// else.
func TestRecordLayoutSize(t *testing.T) {
	frame, err := appendRecord(nil, frameOf(benchOps(256, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 + 21 + 256*(8+8*10); len(frame) != want {
		t.Fatalf("frame is %d bytes, want %d", len(frame), want)
	}
}

// payloadFrame wraps p in a CRC-valid frame behind a v2 journal header.
func payloadFrame(p []byte) []byte {
	buf := encodeJournalHeader(1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(p, castagnoli))
	return append(buf, p...)
}

// recordHeader renders a v2 payload header.
func recordHeader(count uint64, dim uint32, flags byte) []byte {
	p := binary.LittleEndian.AppendUint64(nil, count)
	p = binary.LittleEndian.AppendUint32(p, dim)
	return append(p, flags)
}

// TestDecodeRecordBounded feeds CRC-valid payloads whose header claims
// more than the payload holds. Each must classify as corrupt, and none may
// allocate in proportion to its claim.
func TestDecodeRecordBounded(t *testing.T) {
	one, err := appendRecord(nil, frameOf([]testOp{{P: pt(1, 0, 1, 1, 2)}}))
	if err != nil {
		t.Fatal(err)
	}
	valid := one[8:]
	with := func(p []byte, extra ...byte) []byte { return append(append([]byte(nil), p...), extra...) }
	cases := map[string][]byte{
		"2^32 points":          with(recordHeader(1<<32, 1, recSeqIndex), make([]byte, 64)...),
		"max count":            with(recordHeader(math.MaxUint64, 0, recSeqIndex), make([]byte, 64)...),
		"column size wraps":    with(recordHeader(1<<61, 0, recSeqIndex), make([]byte, 8)...),
		"huge dim":             with(recordHeader(1, math.MaxUint32, recSeqIndex), make([]byte, 64)...),
		"ragged sum too large": with(recordHeader(1, 0, recSeqIndex|recRagged), append(make([]byte, 16), 0xff, 0xff, 0xff, 0xff)...),
		"ragged with dim":      with(recordHeader(0, 3, recSeqIndex|recRagged), make([]byte, 8)...),
		"unknown flag":         with(recordHeader(0, 0, 0x80|recSeqIndex), make([]byte, 8)...),
		"short header":         valid[:recHeaderBytes-1],
		"missing values":       valid[:len(valid)-8],
		"partial value":        valid[:len(valid)-1],
		"trailing bytes":       with(valid, make([]byte, 8)...),
		"has-ts not boolean": with(recordHeader(1, 0, recSeqIndex|recTimestamps),
			append(make([]byte, 8+8+8), 2)...),
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			scan, err := decodeJournal(bytes.NewReader(payloadFrame(p)))
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !scan.corrupt || scan.tornTail || len(scan.records) != 0 {
				t.Fatalf("scan = %+v, want corrupt with no records", scan)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(p), grew)
			}
		})
	}
}

// TestJournalGolden: edge-cases.journal holds edgeCases as the store
// wrote them, one record each in name order, before the batch layout
// moved into internal/wire. The same batches encode to the same bytes
// today, and the file replays to them.
func TestJournalGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "edge-cases.journal"))
	if err != nil {
		t.Fatal(err)
	}
	cases := edgeCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	var recs []testRecord
	for _, name := range names {
		recs = append(recs, testRecord{Ops: cases[name]})
	}
	if got := journalBytes(t, 1, recs...); !bytes.Equal(got, golden) {
		t.Fatalf("journal bytes drifted from the golden file:\n got %x\nwant %x", got, golden)
	}
	scan, err := decodeJournal(bytes.NewReader(golden))
	if err != nil || scan.corrupt || scan.tornTail || len(scan.records) != len(names) {
		t.Fatalf("golden replay: %d records, corrupt %v, torn %v, err %v", len(scan.records), scan.corrupt, scan.tornTail, err)
	}
	for i, name := range names {
		if !sameOps(opsOf(scan.records[i]), cases[name]) {
			t.Fatalf("%s: golden record replays as %+v", name, opsOf(scan.records[i]))
		}
	}
}
