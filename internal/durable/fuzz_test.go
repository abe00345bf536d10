package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

// FuzzDecodeJournal drives the journal decoder with arbitrary file
// images. The properties under test: it never panics, it fails only on
// corruption or the BRESJRN1 refusal, every record it returns re-encodes
// and decodes back to the same ops bit for bit, and a payload claiming
// more than it holds classifies as corrupt (the checked-in corpus holds
// such claims; the decoder's length checks keep them from allocating).
func FuzzDecodeJournal(f *testing.F) {
	f.Add(journalBytes(f, 1, testRecord{Ops: benchOps(3, 2)}))
	f.Add(journalBytesV1(f, 1, testRecord{Ops: benchOps(2, 1)}))
	f.Add(payloadFrame(recordHeader(1<<32, 1, recSeqIndex)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		scan, err := decodeJournal(bytes.NewReader(data))
		if err != nil {
			if !IsCorrupt(err) && !errors.Is(err, errLegacyJournal) {
				t.Fatalf("failure neither corrupt nor the BRESJRN1 refusal: %v", err)
			}
			return
		}
		if scan.corrupt && scan.tornTail {
			t.Fatal("scan is both torn and corrupt")
		}
		for i, rec := range scan.records {
			frame, err := appendRecord(nil, rec)
			if err != nil {
				t.Fatalf("record %d: re-encoding: %v", i, err)
			}
			again, err := decodeRecord(frame[8:])
			if err != nil {
				t.Fatalf("record %d: decoding its re-encoding: %v", i, err)
			}
			if !sameOps(opsOf(again), opsOf(rec)) {
				t.Fatalf("record %d: re-encoding changed the ops", i)
			}
		}
	})
}

// sealCheckpoint frames payload as checkpoint file bytes with a valid
// magic, CRC and length, so fuzzed payloads get past the header checks
// and reach the gob decode.
func sealCheckpoint(payload []byte) []byte {
	buf := append([]byte(nil), ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// FuzzDecodeCheckpoint drives the checkpoint decoder with arbitrary
// payloads. Checkpoint bytes arrive over HTTP as well as from disk
// (POST /streams/{name}/transfer), so the properties under test are: it
// never panics, every failure classifies as corrupt, and a checkpoint it
// accepts re-encodes and decodes back to an equal checkpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	data, err := EncodeCheckpoint(testCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[20:])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		ck, err := DecodeCheckpoint(sealCheckpoint(payload))
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("decode failure not classified corrupt: %v", err)
			}
			return
		}
		again, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		back, err := DecodeCheckpoint(again)
		if err != nil {
			t.Fatalf("decoding the re-encoding: %v", err)
		}
		// NaN is the one float reflect.DeepEqual never equates with
		// itself; gob carries its bits unchanged, so compare those.
		for _, p := range []*Checkpoint{&ck, &back} {
			if math.IsNaN(p.Config.Lambda) {
				p.Config.Lambda = float64(math.Float64bits(p.Config.Lambda))
			}
			if math.IsNaN(p.Config.TierRatio) {
				p.Config.TierRatio = float64(math.Float64bits(p.Config.TierRatio))
			}
		}
		if !reflect.DeepEqual(back, ck) {
			t.Fatalf("re-encoding changed the checkpoint:\n got %+v\nwant %+v", back, ck)
		}
	})
}
