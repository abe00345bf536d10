package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame drives the decoder with arbitrary bytes. The properties
// under test: it never panics, never reads outside the input (enforced by
// handing it an exactly-sized copy so any over-read faults under
// -race/bounds checking), and every accepted frame round-trips through the
// encoder back to the identical bytes.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with valid frames across the column space plus near-miss
	// mutants.
	for _, fr := range []*Frame{
		{Dim: 1, Count: 1, Values: []float64{0}},
		{Dim: 2, Count: 3, Values: []float64{1, 2, 3, 4, 5, 6}, Indices: []uint64{1, 2, 3}},
		{Dim: 1, Count: 2, Values: []float64{9, 8}, Labels: []int64{0, -1}, Weights: []float64{1, 2}},
		{Dim: 1, Count: 2, Values: []float64{9, 8}, Labels: []int64{1 << 40, -5}, First: 7,
			TS: []float64{1, 2.5}, HasTS: []bool{true, false}},
	} {
		buf, err := AppendFrame(nil, "fuzz", fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		// Mutants: truncated body, inflated bodyLen, bad magic.
		f.Add(buf[:len(buf)-1])
		mut := append([]byte(nil), buf...)
		mut[8]++
		f.Add(mut)
		mut = append([]byte(nil), buf...)
		mut[0] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, HeaderLen))

	f.Fuzz(func(t *testing.T, data []byte) {
		// An exactly-sized copy: any index outside [0,len) panics instead
		// of silently reading a larger backing array.
		in := make([]byte, len(data))
		copy(in, data)

		var fr Frame
		rest, err := DecodeFrame(in, &fr)
		if err != nil {
			return
		}
		consumed := len(in) - len(rest)

		// Accepted frames must be internally consistent...
		if fr.Count <= 0 || fr.Count > MaxCount || fr.Dim <= 0 || fr.Dim > MaxDim || fr.Lens != nil {
			t.Fatalf("decoder accepted out-of-range shape count=%d dim=%d lens=%v", fr.Count, fr.Dim, fr.Lens)
		}
		if len(fr.Values) != fr.Count*fr.Dim {
			t.Fatalf("values len %d for count %d dim %d", len(fr.Values), fr.Count, fr.Dim)
		}
		if fr.Indices != nil && (len(fr.Indices) != fr.Count || fr.First != 0) {
			t.Fatalf("indices len %d (first %d) for count %d", len(fr.Indices), fr.First, fr.Count)
		}
		if len(fr.Labels) != fr.Count {
			t.Fatalf("labels len %d for count %d", len(fr.Labels), fr.Count)
		}
		if fr.Weights != nil && len(fr.Weights) != fr.Count {
			t.Fatalf("weights len %d for count %d", len(fr.Weights), fr.Count)
		}
		if (fr.TS != nil || fr.HasTS != nil) && (len(fr.TS) != fr.Count || len(fr.HasTS) != fr.Count) {
			t.Fatalf("timestamps len %d, has-ts len %d for count %d", len(fr.TS), len(fr.HasTS), fr.Count)
		}

		// ...and re-encode to exactly the bytes consumed.
		out, err := AppendFrame(nil, string(fr.Name), &fr)
		if err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		if !bytes.Equal(out, in[:consumed]) {
			t.Fatalf("round trip drifted:\n in  %x\n out %x", in[:consumed], out)
		}
	})
}
