package query

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeAccum drives DecodeAccum, the /accum body decoder a federation
// coordinator runs on every shard's answer, with arbitrary bytes. It is
// seeded with the /accum bodies recorded for the golden HTTP fixtures. The
// properties under test: decoding never panics; an accumulator it accepts
// merges, and answers every linear query type from the merge, without
// panicking; and it re-encodes to bytes that decode again and re-encode
// to the same bytes.
func FuzzDecodeAccum(f *testing.F) {
	seeds, err := filepath.Glob("../federation/testdata/bodies/node_accum*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no recorded /accum bodies to seed from (%v)", err)
	}
	for _, path := range seeds {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"classes":{"1":null}}`))
	f.Add([]byte(`{"dim":3,"sums":[1,2]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAccum(data)
		if err != nil {
			return
		}
		merged := NewMergeAccum(a.Horizon)
		merged.Merge(a)
		merged.Merge(a)
		for typ := range linearTypes {
			_, _ = Answer(typ, merged)
		}

		blob, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("re-encoding an accepted accumulator: %v", err)
		}
		back, err := DecodeAccum(blob)
		if err != nil {
			t.Fatalf("re-encoding %s does not decode: %v", blob, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", blob, again)
		}
	})
}
