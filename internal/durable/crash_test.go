package durable

import (
	"fmt"
	"testing"
)

// crashWorkload drives a deterministic durability script for one stream
// against fs, stopping at the first error (after a crash every operation
// fails anyway). It returns how many ops were appended before the stop
// (applied) and how many of those are guaranteed durable (floor): the
// count at the last successful journal fsync — Sync, or the sync inside
// Rotate — or at Attach.
func crashWorkload(t *testing.T, fs FS, dir string) (applied, floor uint64) {
	t.Helper()
	st, err := Open(fs, dir)
	if err != nil {
		return 0, 0
	}
	if err := st.Attach("s", Checkpoint{Seq: 1, Name: "s", Snapshot: countSnapshot(0)}); err != nil {
		return 0, 0
	}
	const rounds = 12
	for i := uint64(1); i <= rounds; i++ {
		if err := st.Append("s", makeOps(i-1, 1)); err != nil {
			return applied, floor
		}
		applied = i
		if err := st.Sync(); err != nil {
			return applied, floor
		}
		floor = i
		if i%4 == 0 {
			// Rotate syncs the old journal before the cut, so even if the
			// checkpoint write crashes, everything up to here is durable.
			seq, err := st.Rotate("s")
			if err != nil {
				return applied, floor
			}
			if err := st.WriteCheckpoint("s", Checkpoint{Seq: seq, Name: "s", Next: i, Snapshot: countSnapshot(i)}); err != nil {
				return applied, floor
			}
		}
	}
	if err := st.Close(); err != nil {
		return applied, floor
	}
	return applied, floor
}

// recoverCount reboots fs, recovers, and returns the stream's recovered op
// count after proving the tail is an exact prefix continuation. ok is
// false when the stream did not survive at all.
func recoverCount(t *testing.T, fs FS, dir string) (uint64, bool) {
	t.Helper()
	st, err := Open(fs, dir)
	if err != nil {
		t.Fatalf("post-crash Open: %v", err)
	}
	recs, err := st.Recover()
	if err != nil {
		t.Fatalf("post-crash Recover: %v", err)
	}
	if len(recs) == 0 {
		return 0, false
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d streams, want at most 1", len(recs))
	}
	if got := recs[0].Checkpoint.Name; got != "s" {
		t.Fatalf("recovered stream %q, want s", got)
	}
	return tailCount(t, recs[0]), true
}

// TestCrashAtEveryPoint is the recovery property test: for every reachable
// fault-injection point, killing the "process" there and recovering must
// yield a state that is (a) an exact prefix of the applied ops — never
// reordered, never corrupt — and (b) at least the durable floor promised
// by the last successful fsync. Pure crashes must never classify anything
// as corrupt, so the quarantine must stay empty.
func TestCrashAtEveryPoint(t *testing.T) {
	const maxOps = 500 // far above what the workload performs; loop exits early
	completedClean := false
	for n := 1; n <= maxOps; n++ {
		n := n
		t.Run(fmt.Sprintf("op%03d", n), func(t *testing.T) {
			fs := NewMemFS()
			fs.CrashAt(n)
			applied, floor := crashWorkload(t, fs, "data")
			full := applied == 12 // the workload's round count
			if full {
				completedClean = true
			}

			fs.Reboot()
			got, ok := recoverCount(t, fs, "data")
			if !ok {
				if floor > 0 {
					t.Fatalf("stream lost entirely with durable floor %d", floor)
				}
				return
			}
			if got < floor || got > applied {
				t.Fatalf("recovered %d ops, want within [floor %d, applied %d]", got, floor, applied)
			}
			qfiles, err := fs.ReadDir("data/" + quarantineDir)
			if err != nil {
				t.Fatalf("ReadDir quarantine: %v", err)
			}
			if len(qfiles) != 0 {
				t.Fatalf("pure crash produced quarantined files: %v", qfiles)
			}
		})
		if completedClean {
			break
		}
	}
	if !completedClean {
		t.Fatalf("crash sweep never reached a clean run within %d ops — workload larger than sweep bound", maxOps)
	}
}

// TestFailAtEveryPoint injects a single transient I/O failure (bad sector,
// full disk) at every reachable point. The operation must surface the
// error, and the chain on disk must stay recoverable: a crash-free restart
// sees a valid prefix of the applied ops.
func TestFailAtEveryPoint(t *testing.T) {
	const maxOps = 500
	completedClean := false
	for n := 1; n <= maxOps; n++ {
		n := n
		t.Run(fmt.Sprintf("op%03d", n), func(t *testing.T) {
			fs := NewMemFS()
			fs.FailAt(n)
			applied, floor := crashWorkload(t, fs, "data")
			if applied == 12 {
				completedClean = true
			}

			// No crash happened: everything written (synced or not) is on
			// "disk". Recovery must still land in [floor, applied].
			got, ok := recoverCount(t, fs, "data")
			if !ok {
				if floor > 0 {
					t.Fatalf("stream lost entirely with durable floor %d", floor)
				}
				return
			}
			if got < floor || got > applied {
				t.Fatalf("recovered %d ops, want within [floor %d, applied %d]", got, floor, applied)
			}
		})
		if completedClean {
			break
		}
	}
	if !completedClean {
		t.Fatalf("failure sweep never reached a clean run within %d ops", maxOps)
	}
}

// TestCrashMidIngestTornWrite pins the torn-write path explicitly: a crash
// during a journal append leaves a half-written frame; replay must stop at
// the tear with the synced prefix intact and without quarantining.
func TestCrashMidIngestTornWrite(t *testing.T) {
	fs := NewMemFS()
	st, err := Open(fs, "data")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := st.Attach("s", Checkpoint{Seq: 1, Name: "s", Snapshot: countSnapshot(0)}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := st.Append("s", makeOps(0, 2)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Force the journal's current bytes durable, then crash on the very
	// next mutating op: the append's Write tears mid-frame.
	fs.CrashAt(1)
	err = st.Append("s", makeOps(2, 1))
	if err == nil {
		t.Fatal("append during crash succeeded")
	}
	fs.Reboot()
	got, ok := recoverCount(t, fs, "data")
	if !ok {
		t.Fatal("stream lost")
	}
	if got != 2 {
		t.Fatalf("recovered %d ops, want the 2 synced ones", got)
	}
}
