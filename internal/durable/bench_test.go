package durable

import (
	"bytes"
	"strings"
	"testing"

	"biasedres/internal/stream"
)

// benchOps returns n ops shaped like a wire ingest batch: consecutive
// indices, dim values each, unit weights, no timestamps.
func benchOps(n, dim int) []testOp {
	ops := make([]testOp, n)
	vals := make([]float64, n*dim)
	for i := range vals {
		vals[i] = float64(i%97) * 0.25
	}
	for i := range ops {
		ops[i] = testOp{P: stream.Point{
			Index:  uint64(1000 + i),
			Values: vals[i*dim : (i+1)*dim],
			Label:  i % 5,
			Weight: 1,
		}}
	}
	return ops
}

// discardFS is a MemFS whose journals swallow their writes, so an append
// benchmark measures encoding and framing rather than a growing buffer.
type discardFS struct{ *MemFS }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

func (d discardFS) Create(p string) (File, error) {
	if strings.HasSuffix(p, ".journal") {
		return discardFile{}, nil
	}
	return d.MemFS.Create(p)
}

// BenchmarkJournalAppend measures Store.Append of one 256-point, dim-10
// batch: record encoding plus the framed write.
func BenchmarkJournalAppend(b *testing.B) {
	st, err := Open(discardFS{NewMemFS()}, "data")
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Attach("s", Checkpoint{Seq: 1, Name: "s"}); err != nil {
		b.Fatal(err)
	}
	batch := frameOf(benchOps(256, 10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append("s", batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeJournal measures replaying a journal of one 256-op,
// dim-10 record: header, frame check and record decode.
func BenchmarkDecodeJournal(b *testing.B) {
	image := journalBytes(b, 1, testRecord{Ops: benchOps(256, 10)})
	b.SetBytes(int64(len(image)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := decodeJournal(bytes.NewReader(image))
		if err != nil || len(scan.records) != 1 {
			b.Fatalf("decode: %d records, err %v", len(scan.records), err)
		}
	}
}
