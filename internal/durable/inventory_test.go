package durable

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// readDirCounter is a MemFS that counts ReadDir calls.
type readDirCounter struct {
	*MemFS
	n atomic.Int64
}

func (r *readDirCounter) ReadDir(dir string) ([]string, error) {
	r.n.Add(1)
	return r.MemFS.ReadDir(dir)
}

// checkInventory fails t unless stream name's files in the data directory
// are exactly its chain's lists, with no temp file left and at most
// checkpointRetention checkpoints.
func checkInventory(t *testing.T, st *Store, fs FS, name string) {
	t.Helper()
	st.mu.Lock()
	c := st.streams[name]
	st.mu.Unlock()
	if c == nil {
		t.Fatalf("store holds no chain for %q", name)
	}
	c.mu.Lock()
	want := st.paths(name, c.ckpts, c.journals)
	ckpts := len(c.ckpts)
	c.mu.Unlock()
	entries, err := fs.ReadDir(st.Dir())
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var got []string
	for _, e := range entries {
		if strings.HasSuffix(e, ".tmp") {
			t.Errorf("temp file %s left in the data directory", e)
		}
		if n, _, _, ok := parseFile(e); ok && n == name {
			got = append(got, filepath.Join(st.Dir(), e))
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("files of %q on disk %v, chain lists %v", name, got, want)
	}
	if ckpts > checkpointRetention {
		t.Fatalf("%q keeps %d checkpoints, want at most %d", name, ckpts, checkpointRetention)
	}
}

// checkpointRound cuts and publishes one checkpoint of name.
func checkpointRound(t *testing.T, st *Store, name string, count uint64) {
	t.Helper()
	seq, err := st.Rotate(name)
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if err := st.WriteCheckpoint(name, Checkpoint{Seq: seq, Name: name, Next: count, Snapshot: countSnapshot(count)}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
}

// TestStoreListsDirectoryOnlyAtRecover: after Recover, rebaselining,
// checkpointing, removing and quarantining streams never list the data
// directory, because each chain knows its own files.
func TestStoreListsDirectoryOnlyAtRecover(t *testing.T) {
	fs := &readDirCounter{MemFS: NewMemFS()}
	names := []string{"a", "b", "c"}
	for _, name := range names {
		if err := buildChain(t, fs, "data", name).Close(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.Recover()
	if err != nil || len(recs) != len(names) {
		t.Fatalf("Recover: %v, %d streams", err, len(recs))
	}
	fs.n.Store(0)
	for _, rec := range recs {
		name := rec.Checkpoint.Name
		if err := st.Attach(name, Checkpoint{Seq: rec.MaxSeq + 1, Name: name, Next: 5, Snapshot: countSnapshot(5)}); err != nil {
			t.Fatalf("rebaseline Attach: %v", err)
		}
	}
	for round := range 3 {
		for _, name := range names {
			if err := st.Append(name, makeOps(5+uint64(round), 1)); err != nil {
				t.Fatal(err)
			}
			checkpointRound(t, st, name, 6+uint64(round))
		}
	}
	if err := st.Remove("a"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	st.QuarantineStream("b")
	if n := fs.n.Load(); n != 0 {
		t.Fatalf("store listed the data directory %d times after Recover, want 0", n)
	}
	checkInventory(t, st, fs, "c")
	entries, err := fs.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e, "st-a.") || strings.HasPrefix(e, "st-b.") {
			t.Errorf("%s survived Remove/QuarantineStream", e)
		}
	}
	if q, _ := fs.ReadDir(filepath.Join("data", quarantineDir)); len(q) != 4 {
		t.Fatalf("quarantine holds %v, want b's 2 checkpoints and 2 journals", q)
	}
}

// TestFailedCheckpointWriteRemovesTemp fails each step of a checkpoint
// write in turn: none may leave its temp file behind, and an unpublished
// checkpoint must not count as a retained generation.
func TestFailedCheckpointWriteRemovesTemp(t *testing.T) {
	const steps = 5 // create, write, sync, rename, directory sync
	for n := 1; n <= steps; n++ {
		t.Run(fmt.Sprintf("op%d", n), func(t *testing.T) {
			fs := NewMemFS()
			st, err := Open(fs, "data")
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Attach("s", Checkpoint{Seq: 1, Name: "s", Snapshot: countSnapshot(0)}); err != nil {
				t.Fatal(err)
			}
			seq, err := st.Rotate("s")
			if err != nil {
				t.Fatal(err)
			}
			fs.FailAt(n)
			if err := st.WriteCheckpoint("s", Checkpoint{Seq: seq, Name: "s", Snapshot: countSnapshot(0)}); err == nil {
				t.Fatalf("WriteCheckpoint with op %d failing succeeded", n)
			}
			checkInventory(t, st, fs, "s")
			for count := uint64(1); count <= 3; count++ {
				checkpointRound(t, st, "s", count)
				checkInventory(t, st, fs, "s")
			}
		})
	}
}

// TestRefusedStreamRecreated: once the operator deletes a refused
// stream's files, a new stream of that name starts a chain of its own, so
// pruning never counts the old stream's sequences against its
// checkpoints.
func TestRefusedStreamRecreated(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		st := buildChain(t, fs, dir, "sensor")
		checkpointRound(t, st, "sensor", 5)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := Open(fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		fs.write(t, st.journalPath("sensor", 3), journalBytesV1(t, 3, testRecord{Ops: opsOf(makeOps(5, 1))}))
		if recs, err := st.Recover(); err != nil || len(recs) != 0 || len(st.Refused()) != 1 {
			t.Fatalf("Recover: %v, %d streams, refused %v; want sensor refused", err, len(recs), st.Refused())
		}
		entries, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := fs.Remove(filepath.Join(dir, e)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Attach("sensor", Checkpoint{Seq: 1, Name: "sensor", Snapshot: countSnapshot(0)}); err != nil {
			t.Fatalf("Attach once the refused files are gone: %v", err)
		}
		checkInventory(t, st, fs, "sensor")
		if err := st.Append("sensor", makeOps(0, 2)); err != nil {
			t.Fatal(err)
		}
		checkpointRound(t, st, "sensor", 2)
		checkInventory(t, st, fs, "sensor")
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = Open(fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := st.Recover()
		if err != nil || len(recs) != 1 {
			t.Fatalf("Recover: %v, %d streams", err, len(recs))
		}
		if rec := recs[0]; rec.Checkpoint.Seq != 2 || tailCount(t, rec) != 2 {
			t.Fatalf("recovered seq %d, want the new stream's checkpoint 2 with its 2 ops", rec.Checkpoint.Seq)
		}
	})
}

// TestQuarantineLeavesInventory: files recovery moves aside leave the
// chain's lists, so a corrupt generation never counts as a fallback the
// rebaselined stream keeps.
func TestQuarantineLeavesInventory(t *testing.T) {
	withEachFS(t, func(t *testing.T, fs testFS, dir string) {
		if err := buildChain(t, fs, dir, "sensor").Close(); err != nil {
			t.Fatal(err)
		}
		st, err := Open(fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		fs.write(t, st.ckptPath("sensor", 2), []byte("garbage"))
		fs.write(t, st.journalPath("sensor", 2), []byte("garbage"))
		recs, err := st.Recover()
		if err != nil || len(recs) != 1 || recs[0].Checkpoint.Seq != 1 {
			t.Fatalf("Recover: %v, %+v, want sensor from checkpoint 1", err, recs)
		}
		if q := st.StatsNow().Quarantined; q != 2 {
			t.Fatalf("quarantined %d files, want checkpoint 2 and journal 2", q)
		}
		if err := st.Attach("sensor", Checkpoint{Seq: recs[0].MaxSeq + 1, Name: "sensor", Next: 3, Snapshot: countSnapshot(3)}); err != nil {
			t.Fatal(err)
		}
		checkInventory(t, st, fs, "sensor")
		checkpointRound(t, st, "sensor", 3)
		checkInventory(t, st, fs, "sensor")
	})
}

// renameHookFS is a MemFS that runs hook once, just before the first
// rename of a checkpoint temp file.
type renameHookFS struct {
	*MemFS
	hook func()
}

func (h *renameHookFS) Rename(oldpath, newpath string) error {
	if hook := h.hook; hook != nil && strings.HasSuffix(oldpath, ".tmp") {
		h.hook = nil
		hook()
	}
	return h.MemFS.Rename(oldpath, newpath)
}

// TestRemoveDuringCheckpointWrite: a stream deleted while its checkpoint
// is being written leaves no file behind, so a restart does not revive
// it.
func TestRemoveDuringCheckpointWrite(t *testing.T) {
	fs := &renameHookFS{MemFS: NewMemFS()}
	st, err := Open(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach("s", Checkpoint{Seq: 1, Name: "s", Snapshot: countSnapshot(0)}); err != nil {
		t.Fatal(err)
	}
	seq, err := st.Rotate("s")
	if err != nil {
		t.Fatal(err)
	}
	fs.hook = func() {
		if err := st.Remove("s"); err != nil {
			t.Errorf("Remove: %v", err)
		}
	}
	_ = st.WriteCheckpoint("s", Checkpoint{Seq: seq, Name: "s", Snapshot: countSnapshot(0)})
	if files, _ := fs.ReadDir("data"); len(files) != 0 {
		t.Fatalf("files %v outlived their removed stream", files)
	}
	st2, err := Open(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := st2.Recover(); err != nil || len(recs) != 0 {
		t.Fatalf("Recover: %v, %d streams, want the removed stream gone", err, len(recs))
	}
}

// TestConcurrentCheckpointsKeepInventory has checkpointers cut and write
// one stream's checkpoints at once while writers append to it, as the
// checkpoint loop, a restore and the retention sweep may: afterwards the
// stream's files on disk are exactly its chain's lists.
func TestConcurrentCheckpointsKeepInventory(t *testing.T) {
	const checkpointers, rounds, writers, batches = 3, 10, 3, 40
	fs := NewMemFS()
	st, err := Open(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach("s", Checkpoint{Seq: 1, Name: "s", Snapshot: countSnapshot(0)}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range checkpointers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				seq, err := st.Rotate("s")
				if err == nil {
					err = st.WriteCheckpoint("s", Checkpoint{Seq: seq, Name: "s", Snapshot: countSnapshot(0)})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range batches {
				if err := st.Append("s", makeOps(uint64(k), 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkInventory(t, st, fs, "s")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st2.Recover()
	if err != nil || len(recs) != 1 {
		t.Fatalf("Recover: %v, %d streams", err, len(recs))
	}
	if seq := recs[0].Checkpoint.Seq; seq != 1+checkpointers*rounds {
		t.Fatalf("recovered checkpoint %d, want the newest, %d", seq, 1+checkpointers*rounds)
	}
}
