package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestGenerateSeedCorpus writes the BRW2 entries of the checked-in fuzz
// corpus under testdata/fuzz/FuzzDecodeFrame. The other entries (every
// name without a "v2-" prefix) were written by the BRW1 encoder, which is
// gone; they pin the refusal of BRW1 frames and are never rewritten. It only runs when WIRE_GEN_CORPUS=1 so normal test runs
// never rewrite testdata.
func TestGenerateSeedCorpus(t *testing.T) {
	if os.Getenv("WIRE_GEN_CORPUS") != "1" {
		t.Skip("set WIRE_GEN_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	mustEncode := func(fr *Frame) []byte {
		buf, err := AppendFrame(nil, "fuzz", fr)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	plain := mustEncode(&Frame{Dim: 1, Count: 1, Values: []float64{0}})
	stamped := mustEncode(&Frame{Dim: 2, Count: 3, Values: []float64{1, 2, 3, 4, 5, 6},
		TS: []float64{0.5, 0, 2}, HasTS: []bool{true, false, true}, Weights: []float64{1, 2, 0.5}})
	wide := mustEncode(&Frame{Dim: 1, Count: 3, Values: []float64{9, 8, 7},
		Labels: []int64{math.MaxInt64, math.MinInt64, -5}})
	first := mustEncode(&Frame{Dim: 1, Count: 2, Values: []float64{1, 2}, First: 41})
	indexed := mustEncode(&Frame{Dim: 1, Count: 2, Values: []float64{1, 2}, Indices: []uint64{3, 9}})
	// A ragged batch is a valid journal record, never a valid frame: the
	// dim-2 frame's batch rewritten as two points of 1 and 3 values.
	ragged := mustEncode(&Frame{Dim: 2, Count: 2, Values: []float64{1, 2, 3, 4}})
	ragged[HeaderLen+4+8] = 0                                        // dim
	ragged[HeaderLen+4+12] |= batchRagged                            // flags
	ragged = append(ragged[:len(ragged)-32], 1, 0, 0, 0, 3, 0, 0, 0) // value counts
	ragged = binary.LittleEndian.AppendUint64(ragged, 0)
	ragged = append(ragged, make([]byte, 24)...)
	binary.LittleEndian.PutUint32(ragged[8:], uint32(len(ragged)-HeaderLen))

	mutate := func(src []byte, fn func([]byte)) []byte {
		out := append([]byte(nil), src...)
		fn(out)
		return out
	}
	entries := map[string][]byte{
		"v2-valid-plain":      plain,
		"v2-timestamps":       stamped,
		"v2-int64-labels":     wide,
		"v2-first-index":      first,
		"v2-indices":          indexed,
		"v2-ragged-refused":   ragged,
		"v2-has-ts-not-bool":  mutate(stamped, func(b []byte) { b[len(b)-6*8-1]++ }),
		"v2-bodylen-inflated": mutate(plain, func(b []byte) { b[8]++ }),
		"v2-count-over-limit": mutate(first, func(b []byte) { binary.LittleEndian.PutUint64(b[HeaderLen+4:], MaxCount+1) }),
		"v2-truncated-body":   stamped[:len(stamped)-1],
	}
	for name, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus entries to %s", len(entries), dir)
}
