package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
)

func testCheckpoint() Checkpoint {
	return Checkpoint{
		Seq:      7,
		Name:     "sensor/a b",
		Config:   core.SamplerConfig{Policy: "variable", Lambda: 0.001, Capacity: 128},
		Next:     4242,
		Dim:      3,
		Snapshot: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
}

// randCheckpoint builds a pseudo-random but deterministic checkpoint with
// an opaque snapshot.
func randCheckpoint(rng *rand.Rand) Checkpoint {
	snap := make([]byte, 64+rng.Intn(512))
	rng.Read(snap)
	return Checkpoint{
		Seq:      uint64(rng.Intn(100) + 1),
		Name:     fmt.Sprintf("s%d", rng.Intn(10)),
		Config:   core.SamplerConfig{Policy: "variable", Lambda: rng.Float64() / 100, Capacity: rng.Intn(1000) + 1},
		Next:     uint64(rng.Intn(10000)),
		Dim:      rng.Intn(4) + 1,
		Snapshot: snap,
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	want := testCheckpoint()
	data, err := EncodeCheckpoint(want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestTransferRoundTrip round-trips the body a drain ships between nodes:
// GET /transfer returns EncodeCheckpoint of the live cut, so a transfer is
// a checkpoint with an opaque snapshot that must come back byte for byte.
func TestTransferRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		src := randCheckpoint(rng)
		blob, err := EncodeCheckpoint(src)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", i, err)
		}
		got, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, src) {
			t.Fatalf("iter %d: round trip changed the transfer:\n got %+v\nwant %+v", i, got, src)
		}
		if !bytes.Equal(got.Snapshot, src.Snapshot) {
			t.Fatalf("iter %d: snapshot bytes differ after round trip", i)
		}
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	data, err := EncodeCheckpoint(testCheckpoint())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := map[string]func([]byte) []byte{
		"bit flip in payload": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-3] ^= 0x40
			return c
		},
		"bit flip in header": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[9] ^= 0x01
			return c
		},
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		},
		"truncated payload": func(b []byte) []byte { return b[:len(b)-5] },
		"truncated header":  func(b []byte) []byte { return b[:12] },
		"empty":             func([]byte) []byte { return nil },
	}
	for name, mutate := range cases {
		if _, err := DecodeCheckpoint(mutate(data)); err == nil {
			t.Errorf("%s: corruption not detected", name)
		} else if !IsCorrupt(err) {
			t.Errorf("%s: error %v is not classified corrupt", name, err)
		}
	}
}

// TestTransferCorruptionDetected truncates and flips every region of a
// transfer body and demands a clean IsCorrupt error — a transfer damaged
// in flight must never install.
func TestTransferCorruptionDetected(t *testing.T) {
	blob, err := EncodeCheckpoint(randCheckpoint(rand.New(rand.NewSource(11))))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Truncations at every boundary class: inside the magic, inside the
	// header, mid-payload and one byte short.
	for _, n := range []int{0, 7, 19, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeCheckpoint(blob[:n]); err == nil || !IsCorrupt(err) {
			t.Fatalf("truncation to %d bytes: err = %v, want IsCorrupt", n, err)
		}
	}
	// Single-byte flips across magic, CRC, length and payload.
	for _, idx := range []int{0, 9, 15, 25, len(blob) - 1} {
		mut := append([]byte(nil), blob...)
		mut[idx] ^= 0xff
		if _, err := DecodeCheckpoint(mut); err == nil || !IsCorrupt(err) {
			t.Fatalf("flip at %d: err = %v, want IsCorrupt", idx, err)
		}
	}
}

// journalFormat builds journal file images of one on-disk version: a
// header for base seq plus one frame per record. The store writes only
// v2; v1 images, written before it, are refused, so their encoder lives
// here.
type journalFormat struct {
	name   string
	bytes  func(t testing.TB, seq uint64, recs ...testRecord) []byte
	legacy bool
}

var journalFormats = []journalFormat{
	{"v1", journalBytesV1, true},
	{"v2", journalBytes, false},
}

// scan decodes a journal image of format jf. A v1 image holding anything
// past its header is refused by name whatever its state — intact, torn or
// corrupt — and never classified torn or corrupt, which recovery would
// act on; scan then reports false, and the v2 checks that follow do not
// apply.
func (jf journalFormat) scan(t *testing.T, data []byte) (journalScan, bool) {
	t.Helper()
	scan, err := decodeJournal(bytes.NewReader(data))
	if jf.legacy {
		if !errors.Is(err, errLegacyJournal) || IsCorrupt(err) {
			t.Fatalf("%d-byte v1 image: err = %v, want the BRESJRN1 refusal", len(data), err)
		}
		return scan, false
	}
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return scan, true
}

// journalBytes builds a v2 journal file image.
func journalBytes(t testing.TB, seq uint64, recs ...testRecord) []byte {
	t.Helper()
	buf := encodeJournalHeader(seq)
	for _, rec := range recs {
		var err error
		if buf, err = appendRecord(buf, frameOf(rec.Ops)); err != nil {
			t.Fatalf("appendRecord: %v", err)
		}
	}
	return buf
}

// journalBytesV1 builds a BRESJRN1 journal file image: gob payloads.
func journalBytesV1(t testing.TB, seq uint64, recs ...testRecord) []byte {
	t.Helper()
	buf := append(journalMagicV1[:len(journalMagicV1):len(journalMagicV1)], make([]byte, 8)...)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	for _, rec := range recs {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
			t.Fatalf("gob: %v", err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(payload.Len()))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload.Bytes(), castagnoli))
		buf = append(buf, payload.Bytes()...)
	}
	return buf
}

func opWithValue(v float64) testOp {
	return testOp{P: stream.Point{Index: uint64(v), Values: []float64{v}, Label: -1, Weight: 1}}
}

func TestJournalRoundtrip(t *testing.T) {
	r1 := testRecord{Ops: []testOp{opWithValue(1), opWithValue(2)}}
	r2 := testRecord{Ops: []testOp{{P: stream.Point{Index: 3, Values: []float64{3}}, TS: 9.5, HasTS: true}}}
	for _, jf := range journalFormats {
		t.Run(jf.name, func(t *testing.T) {
			// A journal with only its header — all a clean shutdown
			// leaves — reads as empty in either version.
			empty, err := decodeJournal(bytes.NewReader(jf.bytes(t, 4)))
			if err != nil || empty.base != 4 || len(empty.records) != 0 || empty.tornTail || empty.corrupt {
				t.Fatalf("header-only journal: scan=%+v err=%v", empty, err)
			}
			scan, ok := jf.scan(t, jf.bytes(t, 4, r1, r2))
			if !ok {
				return
			}
			if scan.base != 4 {
				t.Fatalf("base = %d, want 4", scan.base)
			}
			if scan.tornTail || scan.corrupt {
				t.Fatalf("clean journal flagged torn=%v corrupt=%v", scan.tornTail, scan.corrupt)
			}
			if len(scan.records) != 2 || !sameOps(opsOf(scan.records[0]), r1.Ops) || !sameOps(opsOf(scan.records[1]), r2.Ops) {
				t.Fatalf("records mismatch: %+v", scan.records)
			}
		})
	}
}

func TestJournalTornTailIsNotCorrupt(t *testing.T) {
	r1 := testRecord{Ops: []testOp{opWithValue(1)}}
	r2 := testRecord{Ops: []testOp{opWithValue(2)}}
	for _, jf := range journalFormats {
		t.Run(jf.name, func(t *testing.T) {
			full := jf.bytes(t, 1, r1, r2)
			headerAndFirst := len(jf.bytes(t, 1, r1))
			// Every truncation point inside the second frame must classify
			// as a torn tail with the first record intact.
			for cut := headerAndFirst + 1; cut < len(full); cut++ {
				scan, ok := jf.scan(t, full[:cut])
				if !ok {
					continue
				}
				if !scan.tornTail {
					t.Fatalf("cut %d: truncated frame not flagged torn", cut)
				}
				if scan.corrupt {
					t.Fatalf("cut %d: truncation misclassified as corruption", cut)
				}
				if len(scan.records) != 1 || !sameOps(opsOf(scan.records[0]), r1.Ops) {
					t.Fatalf("cut %d: prefix lost: %+v", cut, scan.records)
				}
			}
			// A truncation exactly at a frame boundary is indistinguishable
			// from a cleanly ended journal.
			scan, ok := jf.scan(t, full[:headerAndFirst])
			if ok && (scan.tornTail || scan.corrupt || len(scan.records) != 1) {
				t.Fatalf("boundary cut: scan=%+v", scan)
			}
		})
	}
}

func TestJournalCorruptionClassified(t *testing.T) {
	r1 := testRecord{Ops: []testOp{opWithValue(1)}}
	r2 := testRecord{Ops: []testOp{opWithValue(2)}}
	for _, jf := range journalFormats {
		t.Run(jf.name, func(t *testing.T) {
			data := jf.bytes(t, 1, r1, r2)

			// Flip a byte inside the second record's payload: CRC mismatch
			// mid-file.
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)-1] ^= 0x10
			if scan, ok := jf.scan(t, flipped); ok && (!scan.corrupt || scan.tornTail) {
				t.Fatalf("CRC mismatch: corrupt=%v torn=%v, want corrupt only", scan.corrupt, scan.tornTail)
			} else if ok && len(scan.records) != 1 {
				t.Fatalf("valid prefix lost: %d records", len(scan.records))
			}

			// A garbage length field must not be treated as truncation (or
			// allocated).
			garbage := jf.bytes(t, 1, r1)
			garbage = binary.LittleEndian.AppendUint32(garbage, maxRecordBytes+1)
			garbage = binary.LittleEndian.AppendUint32(garbage, 0)
			if scan, ok := jf.scan(t, garbage); ok && !scan.corrupt {
				t.Fatal("garbage length field not flagged corrupt")
			}

			// A CRC-valid payload that does not parse is corruption too.
			bogus := jf.bytes(t, 1, r1)
			junk := []byte("not a record payload")
			bogus = binary.LittleEndian.AppendUint32(bogus, uint32(len(junk)))
			bogus = binary.LittleEndian.AppendUint32(bogus, crc32.Checksum(junk, castagnoli))
			bogus = append(bogus, junk...)
			if scan, ok := jf.scan(t, bogus); ok && (!scan.corrupt || scan.tornTail || len(scan.records) != 1) {
				t.Fatalf("undecodable payload: scan=%+v, want corrupt after 1 record", scan)
			}
		})
	}

	// A header failure poisons the whole file.
	if _, err := decodeJournal(bytes.NewReader([]byte("BADMAGIC12345678"))); err == nil || !IsCorrupt(err) {
		t.Fatalf("bad magic: err = %v, want corrupt", err)
	}
	if _, err := decodeJournal(bytes.NewReader([]byte("short"))); err == nil || !IsCorrupt(err) {
		t.Fatalf("short header: err = %v, want corrupt", err)
	}
}

func TestParseFile(t *testing.T) {
	cases := []struct {
		entry string
		name  string
		seq   uint64
		kind  string
		ok    bool
	}{
		{"st-sensor.3.ckpt", "sensor", 3, "ckpt", true},
		{"st-sensor.12.journal", "sensor", 12, "journal", true},
		{"st-a.b%2Fc.7.ckpt", "a.b/c", 7, "ckpt", true}, // dots and escapes in names
		{"st-sensor.3.ckpt.tmp", "", 0, "", false},
		{"st-sensor.ckpt", "", 0, "", false},
		{"notours.txt", "", 0, "", false},
		{"st-sensor.x.ckpt", "", 0, "", false},
	}
	for _, c := range cases {
		name, seq, kind, ok := parseFile(c.entry)
		if ok != c.ok || name != c.name || seq != c.seq || kind != c.kind {
			t.Errorf("parseFile(%q) = (%q,%d,%q,%v), want (%q,%d,%q,%v)",
				c.entry, name, seq, kind, ok, c.name, c.seq, c.kind, c.ok)
		}
	}
}
