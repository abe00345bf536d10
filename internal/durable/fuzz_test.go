package durable

import (
	"bytes"
	"testing"
)

// FuzzDecodeJournal drives the journal decoder with arbitrary file
// images. The properties under test: it never panics, a v1 or v2 image
// yields only well-formed records, every record it returns re-encodes as
// v2 and decodes back to the same ops bit for bit, and a payload claiming
// more than it holds classifies as corrupt (the checked-in corpus holds
// such claims; the decoder's length checks keep them from allocating).
func FuzzDecodeJournal(f *testing.F) {
	f.Add(journalBytes(f, 1, Record{Ops: benchOps(3, 2)}))
	f.Add(journalBytesV1(f, 1, Record{Ops: benchOps(2, 1)}))
	f.Add(payloadFrame(recordHeader(1<<32, 1, recSeqIndex)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := decodeJournal(bytes.NewReader(data))
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("header failure not classified corrupt: %v", err)
			}
			return
		}
		if scan.corrupt && scan.tornTail {
			t.Fatal("scan is both torn and corrupt")
		}
		for i, rec := range scan.records {
			frame, err := appendRecord(nil, rec.Ops)
			if err != nil {
				t.Fatalf("record %d: re-encoding: %v", i, err)
			}
			again, err := decodeRecord(frame[8:])
			if err != nil {
				t.Fatalf("record %d: decoding its re-encoding: %v", i, err)
			}
			if !sameOps(again.Ops, rec.Ops) {
				t.Fatalf("record %d: re-encoding changed the ops", i)
			}
		}
	})
}
