// Package durable is the crash-safe persistence layer of the reservoir
// service: per-stream checkpoint files plus an append-only ops journal,
// written so that a process killed at any instant recovers to a valid
// sampler state on restart. The paper's samplers are compressed histories
// of an unbounded stream — unlike a counter, a lost reservoir cannot be
// rebuilt from the live stream — so the service must be able to restart
// without forgetting its past (the setting Hentschel, Haas & Tian's
// "Temporally-Biased Sampling Schemes for Online Model Management"
// motivates for long-lived decayed samples feeding downstream models).
//
// On disk, each stream owns a short chain of files inside one data
// directory (stream names are path-escaped):
//
//	st-<name>.<seq>.ckpt     checkpoint: header + CRC32-guarded gob payload
//	st-<name>.<seq>.journal  ops appended since checkpoint <seq> was cut (BRESJRN2)
//	quarantine/              corrupt files moved aside during recovery
//
// Checkpoints are written via temp file + fsync + atomic rename, so a
// crash mid-write leaves either the old chain or the new one, never a torn
// file. Journals are append-only with a per-record length + CRC32 frame
// around a binary columnar payload (format.go; journals written as gob by
// older versions still replay); fsyncs are coalesced by the caller's sync
// loop, bounding loss after a hard kill to the coalescing window. Recovery loads the newest checkpoint
// whose checksum verifies, replays every journal at or above it, and
// quarantines (never deletes, never crashes on) anything corrupt.
//
// All file operations go through the FS interface so tests can inject
// failing writes, failed fsyncs and crashes at arbitrary points (see
// MemFS) and prove the recovery invariants under -race.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// File is the writable handle the durability layer needs: sequential
// writes, durability on demand, release.
type File interface {
	io.Writer
	// Sync flushes the file's written data to stable storage.
	Sync() error
	Close() error
}

// FS abstracts the handful of filesystem operations checkpointing and
// journaling perform. The production implementation is OSFS; MemFS is the
// fault-injecting in-memory implementation the recovery tests crash at
// every reachable point.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// Open opens path for reading.
	Open(path string) (io.ReadCloser, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path; removing a missing file is not an error.
	Remove(path string) error
	// ReadDir lists the names (not paths) of the entries in dir; a
	// missing dir yields an empty listing.
	ReadDir(dir string) ([]string, error)
	// SyncDir makes directory mutations (renames, creates, removes)
	// under dir durable.
	SyncDir(dir string) error
}

// OSFS is the production FS backed by the operating system.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// OpenAppend implements FS.
func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// Open implements FS.
func (OSFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(path string) error {
	err := os.Remove(path)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// SyncDir implements FS: fsync on the directory makes the renames and
// creates inside it durable (the step after the checkpoint's atomic
// rename that actually pins it to disk).
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
