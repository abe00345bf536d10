package durable

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"biasedres/internal/stream"
)

// TestGenerateJournalSeedCorpus writes the checked-in seed corpus of
// FuzzDecodeJournal to testdata/fuzz/FuzzDecodeJournal. It only runs when
// DURABLE_GEN_CORPUS=1 so normal test runs never rewrite testdata. The
// checked-in v1-plain was gob-encoded when the v1 types were named Record
// and Op; a regenerated one names them testRecord and testOp and decodes the
// same.
func TestGenerateJournalSeedCorpus(t *testing.T) {
	if os.Getenv("DURABLE_GEN_CORPUS") != "1" {
		t.Skip("set DURABLE_GEN_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeJournal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	plain, mixed := corpusRecords()
	v2 := journalBytes(t, 3, plain, mixed)
	mutate := func(src []byte, fn func([]byte)) []byte {
		out := append([]byte(nil), src...)
		fn(out)
		return out
	}
	entries := map[string][]byte{
		"v2-plain":              journalBytes(t, 1, plain),
		"v2-mixed-columns":      v2,
		"v2-empty":              encodeJournalHeader(1),
		"v1-plain":              journalBytesV1(t, 1, plain, mixed),
		"v2-torn-tail":          v2[:len(v2)-5],
		"v2-crc-flip":           mutate(v2, func(b []byte) { b[len(b)-1] ^= 0x10 }),
		"bad-magic":             mutate(v2, func(b []byte) { b[7] = '9' }),
		"claims-2pow32-points":  payloadFrame(recordHeader(1<<32, 1, recSeqIndex)),
		"claims-wrapping-count": payloadFrame(append(recordHeader(1<<61, 0, recSeqIndex), make([]byte, 8)...)),
		"claims-huge-dim":       payloadFrame(append(recordHeader(1, math.MaxUint32, recSeqIndex), make([]byte, 16)...)),
		"claims-huge-ragged":    payloadFrame(append(recordHeader(1, 0, recSeqIndex|recRagged), append(make([]byte, 16), 0xff, 0xff, 0xff, 0xff)...)),
		"length-over-limit":     append(encodeJournalHeader(1), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0),
		"empty":                 {},
	}
	for name, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus entries to %s", len(entries), dir)
}

// corpusRecords are the records of the seed corpus: a plain batch and one
// that needs every optional column.
func corpusRecords() (plain, mixed testRecord) {
	plain = testRecord{Ops: benchOps(4, 2)}
	mixed = testRecord{Ops: []testOp{
		{P: stream.Point{Index: 9, Values: []float64{1, 2, 3}, Label: math.MinInt64, Weight: math.NaN()}, TS: 4, HasTS: true},
		{P: stream.Point{Index: 7, Label: -1, Weight: 1}, TS: 5},
		{P: stream.Point{Index: 12, Values: []float64{math.Inf(-1)}, Label: math.MaxInt64, Weight: 0}},
	}}
	return plain, mixed
}

// TestCorpusJournalsReplay: the checked-in v2 journals, written before
// the batch layout moved into internal/wire, still replay to the records
// they were written from, and the v1 journal, which holds records, is
// refused by name.
func TestCorpusJournalsReplay(t *testing.T) {
	plain, mixed := corpusRecords()
	for name, want := range map[string][]testRecord{
		"v1-plain":         nil,
		"v2-plain":         {plain},
		"v2-mixed-columns": {plain, mixed},
	} {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeJournal", name))
			if err != nil {
				t.Fatal(err)
			}
			lit := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(data), "\n")[1], "[]byte("), ")")
			image, err := strconv.Unquote(lit)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := decodeJournal(strings.NewReader(image))
			if want == nil {
				if !errors.Is(err, errLegacyJournal) {
					t.Fatalf("scan: %d records, err %v, want the BRESJRN1 refusal", len(scan.records), err)
				}
				return
			}
			if err != nil || scan.corrupt || scan.tornTail || len(scan.records) != len(want) {
				t.Fatalf("scan: %d records, corrupt %v, torn %v, err %v", len(scan.records), scan.corrupt, scan.tornTail, err)
			}
			for i, rec := range want {
				if !sameOps(opsOf(scan.records[i]), rec.Ops) {
					t.Fatalf("record %d replays as %+v, want %+v", i, opsOf(scan.records[i]), rec.Ops)
				}
			}
		})
	}
}
