package durable

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"biasedres/internal/stream"
	"biasedres/internal/wire"
)

// countSnapshot is the fake sampler snapshot the store tests use: 8 bytes
// encoding how many ops the checkpoint has folded in. It makes "recovered
// logical state" a single comparable number.
func countSnapshot(n uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, n)
}

func snapshotCount(t *testing.T, blob []byte) uint64 {
	t.Helper()
	if len(blob) != 8 {
		t.Fatalf("snapshot is %d bytes, want 8", len(blob))
	}
	return binary.LittleEndian.Uint64(blob)
}

// makeOps returns a batch of n points whose values continue the sequence
// after `from`: point i carries value from+i+1. Recovery assertions
// rebuild the applied prefix from these values.
func makeOps(from uint64, n int) *wire.Frame {
	ops := make([]testOp, n)
	for i := range ops {
		v := from + uint64(i) + 1
		ops[i] = opWithValue(float64(v))
	}
	return frameOf(ops)
}

// tailCount verifies rec's journal tail is the exact op sequence following
// its checkpoint and returns the total recovered op count.
func tailCount(t *testing.T, rec Recovered) uint64 {
	t.Helper()
	n := snapshotCount(t, rec.Checkpoint.Snapshot)
	for _, r := range rec.Tail {
		for _, op := range opsOf(r) {
			n++
			if len(op.P.Values) != 1 || op.P.Values[0] != float64(n) {
				t.Fatalf("tail op %d carries %v, want [%d] — replay is not an exact prefix",
					n, op.P.Values, n)
			}
		}
	}
	return n
}

// testFS pairs an FS implementation with raw read/write hooks so the same
// suite proves MemFS and the production OSFS.
type testFS interface {
	FS
	read(t *testing.T, path string) []byte
	write(t *testing.T, path string, data []byte)
}

type memTestFS struct{ *MemFS }

func (m memTestFS) read(t *testing.T, path string) []byte {
	t.Helper()
	data, ok := m.ReadFile(path)
	if !ok {
		t.Fatalf("reading %s: not found", path)
	}
	return data
}

func (m memTestFS) write(t *testing.T, path string, data []byte) { m.WriteFile(path, data) }

type osTestFS struct{ OSFS }

func (osTestFS) read(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return data
}

func (osTestFS) write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
}

// withEachFS runs fn against MemFS and against OSFS rooted in a temp dir.
func withEachFS(t *testing.T, fn func(t *testing.T, fs testFS, dir string)) {
	t.Run("memfs", func(t *testing.T) {
		fn(t, memTestFS{NewMemFS()}, "data")
	})
	t.Run("osfs", func(t *testing.T) {
		fn(t, osTestFS{}, filepath.Join(t.TempDir(), "data"))
	})
}

// buildChain writes a two-generation chain for stream name: checkpoint 1
// (empty), journal 1 with ops 1..3, checkpoint 2 (count 3), journal 2 with
// ops 4..5. Returns the store.
func buildChain(t *testing.T, fs FS, dir, name string) *Store {
	t.Helper()
	st, err := Open(fs, dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := st.Attach(name, Checkpoint{Seq: 1, Name: name, Snapshot: countSnapshot(0)}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := st.Append(name, makeOps(0, 3)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	seq, err := st.Rotate(name)
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if seq != 2 {
		t.Fatalf("Rotate returned seq %d, want 2", seq)
	}
	if err := st.WriteCheckpoint(name, Checkpoint{Seq: seq, Name: name, Next: 3, Snapshot: countSnapshot(3)}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := st.Append(name, makeOps(3, 2)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return st
}

func TestStoreRecoverLifecycle(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		st := buildChain(t, fs, dir, "sensor")
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		st2, err := Open(fs, dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		recs, err := st2.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if len(recs) != 1 {
			t.Fatalf("recovered %d streams, want 1", len(recs))
		}
		rec := recs[0]
		if rec.Checkpoint.Seq != 2 || rec.Checkpoint.Name != "sensor" {
			t.Fatalf("recovered checkpoint %+v, want seq 2 for sensor", rec.Checkpoint)
		}
		if rec.MaxSeq != 2 || rec.TornTail {
			t.Fatalf("MaxSeq=%d TornTail=%v, want 2/false", rec.MaxSeq, rec.TornTail)
		}
		if n := tailCount(t, rec); n != 5 {
			t.Fatalf("recovered %d ops, want 5", n)
		}
		if got := st2.StatsNow(); got.Recoveries != 1 || got.Quarantined != 0 {
			t.Fatalf("stats after clean recovery: %+v", got)
		}

		// Rebaseline above everything on disk, then keep going.
		if err := st2.Attach("sensor", Checkpoint{Seq: rec.MaxSeq + 1, Name: "sensor", Next: 5, Snapshot: countSnapshot(5)}); err != nil {
			t.Fatalf("rebaseline Attach: %v", err)
		}
		if err := st2.Append("sensor", makeOps(5, 1)); err != nil {
			t.Fatalf("Append after rebaseline: %v", err)
		}
		if err := st2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st3, err := Open(fs, dir)
		if err != nil {
			t.Fatalf("reopen 2: %v", err)
		}
		recs, err = st3.Recover()
		if err != nil || len(recs) != 1 {
			t.Fatalf("second recovery: %v, %d streams", err, len(recs))
		}
		if recs[0].Checkpoint.Seq != 3 {
			t.Fatalf("second recovery picked seq %d, want 3", recs[0].Checkpoint.Seq)
		}
		if n := tailCount(t, recs[0]); n != 6 {
			t.Fatalf("second recovery has %d ops, want 6", n)
		}
	})
}

func TestRecoverFallsBackOnCorruptCheckpoint(t *testing.T) {
	corruptions := map[string]func(t *testing.T, fs testFS, path string){
		"bit flip": func(t *testing.T, fs testFS, path string) {
			data := fs.read(t, path)
			data[len(data)-2] ^= 0x04
			fs.write(t, path, data)
		},
		"truncation": func(t *testing.T, fs testFS, path string) {
			data := fs.read(t, path)
			fs.write(t, path, data[:len(data)/2])
		},
	}
	for name, corrupt := range corruptions {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			withEachFS(t, func(t *testing.T, fs testFS, dir string) {
				st := buildChain(t, fs, dir, "sensor")
				if err := st.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				st2, err := Open(fs, dir)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				corrupt(t, fs, st2.ckptPath("sensor", 2))

				recs, err := st2.Recover()
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				if len(recs) != 1 {
					t.Fatalf("recovered %d streams, want 1 (fallback)", len(recs))
				}
				rec := recs[0]
				if rec.Checkpoint.Seq != 1 {
					t.Fatalf("fell back to seq %d, want 1", rec.Checkpoint.Seq)
				}
				// Both journals replay on top of checkpoint 1: full state back.
				if n := tailCount(t, rec); n != 5 {
					t.Fatalf("fallback recovered %d ops, want 5", n)
				}
				if rec.MaxSeq != 2 {
					t.Fatalf("MaxSeq = %d, want 2 (rebaseline must clear the corrupt seq)", rec.MaxSeq)
				}
				if got := st2.StatsNow().Quarantined; got != 1 {
					t.Fatalf("quarantined = %d, want 1", got)
				}
				// The corrupt file moved aside, not deleted.
				qpath := filepath.Join(dir, quarantineDir, filepath.Base(st2.ckptPath("sensor", 2)))
				if data := fs.read(t, qpath); len(data) == 0 {
					t.Fatalf("quarantined checkpoint at %s is empty", qpath)
				}
			})
		})
	}
}

func TestRecoverAllCheckpointsCorrupt(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		st := buildChain(t, fs, dir, "sensor")
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st2, err := Open(fs, dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for _, seq := range []uint64{1, 2} {
			fs.write(t, st2.ckptPath("sensor", seq), []byte("garbage"))
		}
		recs, err := st2.Recover()
		if err != nil {
			t.Fatalf("Recover must not fail on per-stream corruption: %v", err)
		}
		if len(recs) != 0 {
			t.Fatalf("recovered %d streams from all-corrupt chain, want 0", len(recs))
		}
		// Both checkpoints and both journals quarantined.
		if got := st2.StatsNow().Quarantined; got != 4 {
			t.Fatalf("quarantined = %d, want 4", got)
		}
	})
}

func TestRecoverStopsAtJournalGap(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		st := buildChain(t, fs, dir, "sensor")
		// Extend to journal 3 so deleting journal 2 leaves a gap.
		if _, err := st.Rotate("sensor"); err != nil {
			t.Fatalf("Rotate: %v", err)
		}
		if err := st.Append("sensor", makeOps(5, 2)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := fs.Remove(filepath.Join(dir, "st-sensor.2.journal")); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		st2, err := Open(fs, dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		recs, err := st2.Recover()
		if err != nil || len(recs) != 1 {
			t.Fatalf("Recover: %v, %d streams", err, len(recs))
		}
		// Checkpoint 2 covers ops 1..3; journal 2 is gone, so journal 3's
		// records must NOT be replayed over the hole.
		if n := tailCount(t, recs[0]); n != 3 {
			t.Fatalf("recovered %d ops, want 3 (replay must stop at the gap)", n)
		}
	})
}

// TestRecoverRefusesV1Journal: a stream whose replay needs a BRESJRN1
// journal with records is not recovered, and none of its files moves or
// changes, not even a corrupt checkpoint recovery would otherwise
// quarantine; Attach refuses its name until those files are gone. A
// stream whose BRESJRN1 journal holds only its header recovers.
func TestRecoverRefusesV1Journal(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		for _, name := range []string{"sensor", "other"} {
			if err := buildChain(t, fs, dir, name).Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
		st, err := Open(fs, dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		fs.write(t, st.journalPath("sensor", 2), journalBytesV1(t, 2, testRecord{Ops: opsOf(makeOps(3, 2))}))
		fs.write(t, st.ckptPath("sensor", 2), []byte("garbage"))
		fs.write(t, st.journalPath("other", 2), journalBytesV1(t, 2))
		sensorFiles := func() map[string]string {
			entries, err := fs.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			files := make(map[string]string)
			for _, e := range entries {
				if strings.HasPrefix(e, "st-sensor.") {
					files[e] = string(fs.read(t, filepath.Join(dir, e)))
				}
			}
			return files
		}
		before := sensorFiles()

		recs, err := st.Recover()
		if err != nil || len(recs) != 1 || recs[0].Checkpoint.Name != "other" {
			t.Fatalf("Recover: %v, %+v, want the other stream only", err, recs)
		}
		if n := tailCount(t, recs[0]); n != 3 {
			t.Fatalf("other recovered %d ops, want the checkpoint's 3", n)
		}
		refused := st.Refused()
		if len(refused) != 1 || !strings.Contains(refused[0].Error(), "st-sensor.2.journal") || !strings.Contains(refused[0].Error(), "SIGTERM") {
			t.Fatalf("Refused() = %v, want one error naming the journal and the remedy", refused)
		}
		if q := st.StatsNow().Quarantined; q != 0 {
			t.Fatalf("quarantined %d files, want 0", q)
		}
		if err := st.Attach("sensor", Checkpoint{Seq: 1, Name: "sensor", Snapshot: countSnapshot(0)}); err == nil {
			t.Fatal("Attach accepted a refused stream")
		}
		if after := sensorFiles(); len(after) != len(before) || len(before) != 4 {
			t.Fatalf("sensor files %d before, %d after, want 4", len(before), len(after))
		} else {
			for name, data := range before {
				if after[name] != data {
					t.Fatalf("%s changed", name)
				}
			}
		}

		for name := range before {
			if err := fs.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Attach("sensor", Checkpoint{Seq: 1, Name: "sensor", Snapshot: countSnapshot(0)}); err != nil {
			t.Fatalf("Attach once the refused files are gone: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPruneRetention(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		st := buildChain(t, fs, dir, "sensor")
		// Third generation: checkpoint 3 should push generation 1 out.
		seq, err := st.Rotate("sensor")
		if err != nil {
			t.Fatalf("Rotate: %v", err)
		}
		if err := st.WriteCheckpoint("sensor", Checkpoint{Seq: seq, Name: "sensor", Next: 5, Snapshot: countSnapshot(5)}); err != nil {
			t.Fatalf("WriteCheckpoint: %v", err)
		}
		entries, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		got := map[string]bool{}
		for _, e := range entries {
			got[e] = true
		}
		for _, want := range []string{"st-sensor.2.ckpt", "st-sensor.3.ckpt", "st-sensor.2.journal", "st-sensor.3.journal"} {
			if !got[want] {
				t.Errorf("%s missing after prune (have %v)", want, entries)
			}
		}
		for _, gone := range []string{"st-sensor.1.ckpt", "st-sensor.1.journal"} {
			if got[gone] {
				t.Errorf("%s survived prune (retention %d)", gone, checkpointRetention)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

func TestRemoveDropsEveryFile(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		st := buildChain(t, fs, dir, "sensor")
		if err := st.Remove("sensor"); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		entries, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e, "st-") {
				t.Errorf("file %s survived Remove", e)
			}
		}
	})
}

func TestEscapedStreamNames(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		name := "ml/training set.v2"
		st := buildChain(t, fs, dir, name)
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st2, err := Open(fs, dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		recs, err := st2.Recover()
		if err != nil || len(recs) != 1 {
			t.Fatalf("Recover: %v, %d streams", err, len(recs))
		}
		if recs[0].Checkpoint.Name != name {
			t.Fatalf("recovered name %q, want %q", recs[0].Checkpoint.Name, name)
		}
		if n := tailCount(t, recs[0]); n != 5 {
			t.Fatalf("recovered %d ops, want 5", n)
		}
	})
}

func TestRecoverCleansTmpLeftovers(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		st := buildChain(t, fs, dir, "sensor")
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		fs.write(t, filepath.Join(dir, "st-sensor.3.ckpt.tmp"), []byte("half-written"))
		st2, err := Open(fs, dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if _, err := st2.Recover(); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		entries, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e, ".tmp") {
				t.Errorf("tmp leftover %s survived recovery", e)
			}
		}
	})
}

func TestQuarantineStream(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		st := buildChain(t, fs, dir, "sensor")
		st.QuarantineStream("sensor")
		entries, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e, "st-") {
				t.Errorf("file %s left in data dir after QuarantineStream", e)
			}
		}
		qentries, err := fs.ReadDir(filepath.Join(dir, quarantineDir))
		if err != nil {
			t.Fatalf("ReadDir quarantine: %v", err)
		}
		if len(qentries) != 4 { // 2 ckpts + 2 journals
			t.Fatalf("quarantine holds %d files, want 4: %v", len(qentries), qentries)
		}
	})
}

// TestAppendConcurrent has several writers append to two streams at once:
// each stream's chain reuses one encoding buffer, so every record must
// come back whole — all of one writer's batch — and none may be lost.
func TestAppendConcurrent(t *testing.T) {
	const writers, batches, batchLen = 4, 40, 16
	fs := NewMemFS()
	st, err := Open(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	streams := []string{"a", "b"}
	for _, name := range streams {
		if err := st.Attach(name, Checkpoint{Seq: 1, Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < batches; k++ {
				// Every op of a batch carries the writer and batch number,
				// and batches differ in dim so their records differ in size.
				ops := make([]testOp, batchLen)
				for i := range ops {
					vals := make([]float64, 1+(w+k)%3)
					for d := range vals {
						vals[d] = float64(w*1000 + k)
					}
					ops[i] = testOp{P: stream.Point{Index: uint64(i), Values: vals, Label: w, Weight: 1}}
				}
				if err := st.Append(streams[k%2], frameOf(ops)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st2.Recover()
	if err != nil || len(recs) != len(streams) {
		t.Fatalf("Recover: %d streams, err %v", len(recs), err)
	}
	total := 0
	for _, rec := range recs {
		for _, f := range rec.Tail {
			ops := opsOf(f)
			if len(ops) != batchLen {
				t.Fatalf("record of %d ops, want %d", len(ops), batchLen)
			}
			first := ops[0]
			tag := first.P.Values[0]
			for i, op := range ops {
				if op.P.Index != uint64(i) || op.P.Label != first.P.Label || len(op.P.Values) != len(first.P.Values) {
					t.Fatalf("record mixes batches: op %d is %+v, op 0 is %+v", i, op, first)
				}
				for _, v := range op.P.Values {
					if v != tag {
						t.Fatalf("record mixes batches: value %v beside %v", v, tag)
					}
				}
			}
			total++
		}
	}
	if total != writers*batches {
		t.Fatalf("recovered %d records, want %d", total, writers*batches)
	}
}
