package durable

import (
	"errors"
	"fmt"
	"io"
	"net/url"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/obs"
	"biasedres/internal/wire"
)

// Store owns one data directory and the per-stream checkpoint/journal
// chains inside it. It is safe for concurrent use; per-stream operations
// serialize on the stream's own lock so different streams persist in
// parallel.
//
// Lifecycle per stream:
//
//	Attach    write checkpoint <seq>, open journal <seq>   (create/recover)
//	Append    frame a batch onto the active journal        (every applied batch)
//	Sync      fsync journals with unsynced appends         (coalescing loop)
//	Rotate    open journal <seq+1>; appends go there       (under the sampler lock)
//	WriteCheckpoint  write checkpoint <seq+1>, prune       (outside all locks)
//	Remove    drop every file                              (stream deletion)
//
// Rotate/WriteCheckpoint are split so the caller can pin "journal cut
// point" to the exact sampler state it marshals (both under its sampler
// lock) while the slow checkpoint write happens outside every lock.
//
// Recover is the only listing of the data directory: it learns every
// stream's files there, and from then on each chain keeps its own list as
// the store writes, prunes, quarantines and removes them. A file put into
// the directory by hand is seen at the next Recover.
type Store struct {
	fs  FS
	dir string

	mu      sync.Mutex
	streams map[string]*streamChain
	// refused holds, by stream name, why Recover left a stream's files
	// alone; Attach refuses the name while any of those files remain.
	refused map[string]error

	// Counters for the biasedres_durable_* metrics family.
	checkpoints    atomic.Uint64
	journalAppends atomic.Uint64
	recoveries     atomic.Uint64
	quarantined    atomic.Uint64
	writeErrors    atomic.Uint64
}

// streamChain is one stream's persistence state.
type streamChain struct {
	mu       sync.Mutex
	name     string
	seq      uint64 // base sequence of the active journal
	journal  File
	dirty    bool // journal has appends not yet fsynced
	lastCkpt time.Time
	// buf is the record encoding buffer Append reuses, so a steady stream
	// of batches encodes without allocating.
	buf []byte
	// ckpts and journals are the ascending sequences of the stream's
	// checkpoint and journal files in the data directory. A checkpoint
	// enters ckpts only once its rename published it, a journal enters
	// journals once its file is created.
	ckpts, journals []uint64
}

// maxReusedRecordBuf caps the encoding buffer a chain keeps between
// appends: one oversized batch must not pin its buffer for the stream's
// lifetime.
const maxReusedRecordBuf = 1 << 20

// checkpointRetention is how many checkpoint generations stay on disk:
// the newest plus one fallback in case the newest fails verification.
const checkpointRetention = 2

// quarantineDir is the subdirectory corrupt files are moved into.
const quarantineDir = "quarantine"

// Open prepares a store over dir, creating it if needed. It does not read
// anything; call Recover to load existing state.
func Open(fs FS, dir string) (*Store, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("durable: creating data dir %s: %w", dir, err)
	}
	return &Store{fs: fs, dir: dir, streams: make(map[string]*streamChain), refused: make(map[string]error)}, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// escapeName maps a stream name to a filename-safe token, reversed by
// unescapeName. PathEscape keeps the common case readable while never
// emitting a path separator.
func escapeName(name string) string { return url.PathEscape(name) }

func unescapeName(tok string) (string, error) { return url.PathUnescape(tok) }

// ckptPath and journalPath name a stream's files. Parsing works from the
// right (suffix, then sequence), so stream names containing dots survive.
func (s *Store) ckptPath(name string, seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("st-%s.%d.ckpt", escapeName(name), seq))
}

func (s *Store) journalPath(name string, seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("st-%s.%d.journal", escapeName(name), seq))
}

// parseFile splits a data-dir entry into stream name, sequence and kind
// ("ckpt" or "journal"); ok is false for foreign files.
func parseFile(entry string) (name string, seq uint64, kind string, ok bool) {
	if !strings.HasPrefix(entry, "st-") {
		return "", 0, "", false
	}
	rest := entry[len("st-"):]
	i := strings.LastIndexByte(rest, '.')
	if i < 0 {
		return "", 0, "", false
	}
	kind = rest[i+1:]
	if kind != "ckpt" && kind != "journal" {
		return "", 0, "", false
	}
	rest = rest[:i]
	i = strings.LastIndexByte(rest, '.')
	if i < 0 {
		return "", 0, "", false
	}
	n, err := strconv.ParseUint(rest[i+1:], 10, 64)
	if err != nil {
		return "", 0, "", false
	}
	name, err = unescapeName(rest[:i])
	if err != nil {
		return "", 0, "", false
	}
	return name, n, kind, true
}

// chain returns (creating if needed) the stream's persistence state.
func (s *Store) chain(name string) *streamChain {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.streams[name]
	if !ok {
		c = &streamChain{name: name}
		s.streams[name] = c
	}
	return c
}

// locked returns stream name's chain with c.mu held, or an error when
// the stream has no active journal.
func (s *Store) locked(name string) (*streamChain, error) {
	s.mu.Lock()
	c, ok := s.streams[name]
	s.mu.Unlock()
	if ok {
		c.mu.Lock()
		if c.journal != nil {
			return c, nil
		}
		c.mu.Unlock()
	}
	return nil, fmt.Errorf("durable: stream %q has no active journal", name)
}

// chains lists every chain the store holds, in stream-name order.
func (s *Store) chains() []*streamChain {
	s.mu.Lock()
	cs := make([]*streamChain, 0, len(s.streams))
	for _, c := range s.streams {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	slices.SortFunc(cs, func(a, b *streamChain) int { return strings.Compare(a.name, b.name) })
	return cs
}

// insertSeq adds seq to the ascending list seqs, once.
func insertSeq(seqs []uint64, seq uint64) []uint64 {
	i, found := slices.BinarySearch(seqs, seq)
	if found {
		return seqs
	}
	return slices.Insert(seqs, i, seq)
}

// writeCheckpointFile writes ck's bytes crash-safely: temp file, fsync,
// atomic rename over the final name, directory fsync. published reports
// that the rename happened, so the file is in the directory even if err
// reports the directory fsync failing. A failure before the rename
// removes the temp file, best-effort.
func (s *Store) writeCheckpointFile(name string, ck Checkpoint) (published bool, err error) {
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		return false, err
	}
	final := s.ckptPath(name, ck.Seq)
	tmp := final + ".tmp"
	defer func() {
		if !published {
			_ = s.fs.Remove(tmp)
		}
	}()
	f, err := s.fs.Create(tmp)
	if err != nil {
		return false, fmt.Errorf("durable: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return false, fmt.Errorf("durable: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, fmt.Errorf("durable: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("durable: closing %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return false, fmt.Errorf("durable: publishing %s: %w", final, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return true, fmt.Errorf("durable: syncing data dir: %w", err)
	}
	return true, nil
}

// openJournal opens (creating) c's journal for base seq and writes its
// header. The header is synced immediately so recovery can always tell
// which checkpoint the journal follows. The caller holds c.mu.
func (s *Store) openJournal(c *streamChain, seq uint64) (File, error) {
	path := s.journalPath(c.name, seq)
	f, err := s.fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("durable: creating journal %s: %w", path, err)
	}
	c.journals = insertSeq(c.journals, seq)
	if _, err := f.Write(encodeJournalHeader(seq)); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: writing journal header %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: syncing journal header %s: %w", path, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: syncing data dir: %w", err)
	}
	return f, nil
}

// Attach establishes a stream's durable chain at ck.Seq: the checkpoint
// is written first, then the journal for appends on top of it. Used when
// a stream is created (Seq 1) and after recovery rebaselines a stream.
// It refuses, touching nothing, a stream Recover refused while any file
// of that stream remains: opening its journal would truncate records.
func (s *Store) Attach(name string, ck Checkpoint) error {
	if err := s.refusal(name); err != nil {
		return err
	}
	c := s.chain(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	published, err := s.writeCheckpointFile(name, ck)
	if published {
		c.ckpts = insertSeq(c.ckpts, ck.Seq)
	}
	if err != nil {
		s.writeErrors.Add(1)
		return err
	}
	j, err := s.openJournal(c, ck.Seq)
	if err != nil {
		s.writeErrors.Add(1)
		return err
	}
	if c.journal != nil {
		c.journal.Close()
	}
	c.journal = j
	c.seq = ck.Seq
	c.dirty = false
	c.lastCkpt = time.Now()
	s.checkpoints.Add(1)
	s.removeFiles(s.expire(c))
	return nil
}

// refusal is why Recover refused stream name, or nil once it did not or
// every file of the stream is gone.
func (s *Store) refusal(name string) error {
	s.mu.Lock()
	err := s.refused[name]
	s.mu.Unlock()
	if err == nil {
		return nil
	}
	entries, rerr := s.fs.ReadDir(s.dir)
	if rerr != nil {
		return err
	}
	for _, e := range entries {
		if n, _, _, ok := parseFile(e); ok && n == name {
			return err
		}
	}
	s.mu.Lock()
	delete(s.refused, name)
	s.mu.Unlock()
	return nil
}

// Refused lists, in stream-name order, the streams the last Recover left
// on disk unrecovered, each error naming the file at fault and the remedy.
func (s *Store) Refused() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := make([]error, 0, len(s.refused))
	for _, err := range s.refused {
		errs = append(errs, err)
	}
	slices.SortFunc(errs, func(a, b error) int { return strings.Compare(a.Error(), b.Error()) })
	return errs
}

// Append frames the applied batch f onto the stream's active journal.
// The bytes reach the OS immediately but are only fsynced by the next
// Sync call — the coalescing that bounds loss after a hard kill to the
// sync interval.
func (s *Store) Append(name string, f *wire.Frame) error {
	if f.Count == 0 {
		return nil
	}
	c, err := s.locked(name)
	if err != nil {
		return err
	}
	defer c.mu.Unlock()
	data, err := appendRecord(c.buf[:0], f)
	if err != nil {
		return err
	}
	if cap(data) <= maxReusedRecordBuf {
		c.buf = data
	}
	if _, err := c.journal.Write(data); err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("durable: appending to journal of %q: %w", name, err)
	}
	c.dirty = true
	s.journalAppends.Add(1)
	return nil
}

// Sync fsyncs every journal with unsynced appends. Called on the
// coalescing interval; one failed journal does not stop the others.
func (s *Store) Sync() error {
	var firstErr error
	for _, c := range s.chains() {
		c.mu.Lock()
		if c.dirty && c.journal != nil {
			if err := c.journal.Sync(); err != nil {
				s.writeErrors.Add(1)
				if firstErr == nil {
					firstErr = fmt.Errorf("durable: syncing journal of %q: %w", c.name, err)
				}
			} else {
				c.dirty = false
			}
		}
		c.mu.Unlock()
	}
	return firstErr
}

// Rotate cuts the stream's journal: appends after Rotate land in the
// journal for seq+1, which the checkpoint about to be written will make
// redundant-free (records in journal N are exactly the ops applied after
// checkpoint N was marshaled). The caller must invoke Rotate at the same
// instant — under the same lock — it captures the sampler snapshot, then
// pass the returned sequence to WriteCheckpoint outside the lock.
//
// The old journal is synced before the cut so its records survive even if
// the upcoming checkpoint write fails.
func (s *Store) Rotate(name string) (uint64, error) {
	c, err := s.locked(name)
	if err != nil {
		return 0, err
	}
	defer c.mu.Unlock()
	if err := c.journal.Sync(); err != nil {
		s.writeErrors.Add(1)
		return 0, fmt.Errorf("durable: syncing journal of %q before rotation: %w", name, err)
	}
	c.dirty = false
	next := c.seq + 1
	j, err := s.openJournal(c, next)
	if err != nil {
		s.writeErrors.Add(1)
		return 0, err
	}
	c.journal.Close()
	c.journal = j
	c.seq = next
	return next, nil
}

// WriteCheckpoint publishes the checkpoint for a sequence obtained from
// Rotate, then prunes generations beyond the retention horizon. Safe to
// call outside every stream lock; a failure leaves the previous chain
// (old checkpoint + both journals) fully recoverable.
func (s *Store) WriteCheckpoint(name string, ck Checkpoint) error {
	c, err := s.locked(name) // the stream must still have a journal
	if err != nil {
		return err
	}
	c.mu.Unlock()
	published, err := s.writeCheckpointFile(name, ck)
	var expired []string
	c.mu.Lock()
	switch {
	case published && c.journal == nil:
		// Remove detached the chain (or Close ended the store) during the
		// write: the checkpoint must not outlive its stream, or the next
		// Recover would revive it.
		expired = []string{s.ckptPath(name, ck.Seq)}
	case published:
		c.ckpts = insertSeq(c.ckpts, ck.Seq)
		if err == nil {
			c.lastCkpt = time.Now()
			expired = s.expire(c)
		}
	}
	c.mu.Unlock()
	// The removals run outside c.mu: Append waits on it while its caller
	// holds the sampler lock.
	s.removeFiles(expired)
	if err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.checkpoints.Add(1)
	return nil
}

// expire drops from c's lists the checkpoint generations older than the
// retention window and the journals no retained checkpoint could replay,
// and returns their paths. Failed writes leave gaps in the sequence
// numbering; the lists hold only files that exist. The caller holds c.mu.
func (s *Store) expire(c *streamChain) []string {
	old := len(c.ckpts) - checkpointRetention
	if old <= 0 {
		return nil
	}
	// Every journal at or above the oldest retained checkpoint is still
	// needed for fallback replay.
	stale, _ := slices.BinarySearch(c.journals, c.ckpts[old])
	paths := s.paths(c.name, c.ckpts[:old], c.journals[:stale])
	c.ckpts = slices.Delete(c.ckpts, 0, old)
	c.journals = slices.Delete(c.journals, 0, stale)
	return paths
}

// removeFiles deletes paths, best-effort, and pins the deletions.
func (s *Store) removeFiles(paths []string) error {
	if len(paths) == 0 {
		return nil
	}
	for _, p := range paths {
		_ = s.fs.Remove(p)
	}
	return s.fs.SyncDir(s.dir)
}

// detach forgets stream name's chain, closing its journal, and returns
// the paths of the chain's files.
func (s *Store) detach(name string) []string {
	s.mu.Lock()
	c, ok := s.streams[name]
	delete(s.streams, name)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		c.journal.Close()
		c.journal = nil
	}
	return s.paths(name, c.ckpts, c.journals)
}

// paths names stream name's checkpoint files ckpts and journal files
// journals.
func (s *Store) paths(name string, ckpts, journals []uint64) []string {
	out := make([]string, 0, len(ckpts)+len(journals))
	for _, seq := range ckpts {
		out = append(out, s.ckptPath(name, seq))
	}
	for _, seq := range journals {
		out = append(out, s.journalPath(name, seq))
	}
	return out
}

// Remove drops every file of a deleted stream.
func (s *Store) Remove(name string) error { return s.removeFiles(s.detach(name)) }

// Close syncs and closes every journal. The store is unusable afterwards.
func (s *Store) Close() error {
	err := s.Sync()
	for _, c := range s.chains() {
		c.mu.Lock()
		if c.journal != nil {
			c.journal.Close()
			c.journal = nil
		}
		c.mu.Unlock()
	}
	return err
}

// quarantine moves a corrupt file into the quarantine subdirectory,
// counting it; best-effort by design (a quarantine failure must never
// stop recovery).
func (s *Store) quarantine(entry string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := s.fs.MkdirAll(qdir); err != nil {
		return
	}
	if err := s.fs.Rename(filepath.Join(s.dir, entry), filepath.Join(qdir, entry)); err != nil {
		return
	}
	_ = s.fs.SyncDir(s.dir)
	_ = s.fs.SyncDir(qdir)
	s.quarantined.Add(1)
}

// Recovered is one stream reconstructed from disk: the checkpoint that
// verified, plus the batch of every journal record that applies on top
// of it, in order. MaxSeq is the highest sequence number seen on disk for
// the stream (recovery rebaselines at MaxSeq+1 to stay above any corrupt
// newer generation). TornTail reports that the final journal ended in a
// partial record — the points of that record are the bounded loss.
type Recovered struct {
	Checkpoint Checkpoint
	Tail       []*wire.Frame
	MaxSeq     uint64
	TornTail   bool
}

// Recover scans the data directory and reconstructs every stream: newest
// checkpoint whose checksum verifies (older generations are fallbacks),
// then every journal at or above it replayed in sequence order. Corrupt
// or truncated files are quarantined — moved aside, counted, never fatal.
// Streams whose every checkpoint is corrupt are dropped (their files all
// quarantined). A stream whose replay needs a BRESJRN1 journal with
// records is skipped with every file left as it is, and listed by
// Refused. The error return is reserved for systemic failures
// (unreadable data directory). Recover must run before any other use of
// the store: the chains it builds here are the store's only inventory of
// the directory.
func (s *Store) Recover() ([]Recovered, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scanning %s: %w", s.dir, err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e, ".tmp") {
			// An unpublished checkpoint temp file: a crash mid-write. The
			// rename never happened, so it is garbage by construction.
			_ = s.fs.Remove(filepath.Join(s.dir, e))
			continue
		}
		name, seq, kind, ok := parseFile(e)
		if !ok {
			continue
		}
		c := s.chain(name)
		if kind == "ckpt" {
			c.ckpts = append(c.ckpts, seq)
		} else {
			c.journals = append(c.journals, seq)
		}
	}

	var out []Recovered
	for _, c := range s.chains() {
		rec, ok := s.recoverStream(c)
		if !ok {
			// Forget the chain, so a later Attach of the name starts from
			// none of these sequences.
			s.detach(c.name)
			continue
		}
		s.recoveries.Add(1)
		out = append(out, rec)
	}
	return out, nil
}

// recoverStream reconstructs one stream from its chain's sequences,
// dropping from them every file it quarantines.
func (s *Store) recoverStream(c *streamChain) (Recovered, bool) {
	name := c.name
	slices.Sort(c.ckpts)
	slices.Sort(c.journals)
	maxSeq := slices.Max(slices.Concat(c.ckpts, c.journals)) // Recover made c for a file

	var ck Checkpoint
	found := false
	// Checkpoints that fail verification are quarantined only once the
	// stream is known to recover, so a refused stream keeps every file.
	var bad []uint64
	for i := len(c.ckpts) - 1; i >= 0; i-- { // newest first
		seq := c.ckpts[i]
		data, err := s.readFile(s.ckptPath(name, seq))
		if err == nil {
			ck, err = DecodeCheckpoint(data)
		}
		if err != nil || ck.Seq != seq || ck.Name != name {
			bad = append(bad, seq)
			continue
		}
		found = true
		break
	}
	if !found {
		// No checkpoint verified: quarantine the journals too — without a
		// base state their records cannot be applied.
		for _, p := range s.paths(name, bad, c.journals) {
			s.quarantine(filepath.Base(p))
		}
		return Recovered{}, false
	}

	rec := Recovered{Checkpoint: ck, MaxSeq: maxSeq}
	expect := ck.Seq
	var badJournal []uint64
	for _, seq := range c.journals {
		if seq < ck.Seq {
			continue // already folded into the checkpoint
		}
		if seq != expect {
			// A gap in the journal chain: later records assume ops this
			// store never saw. Stop replay at the gap.
			break
		}
		expect = seq + 1
		r, err := s.fs.Open(s.journalPath(name, seq))
		if err != nil {
			continue
		}
		scan, err := decodeJournal(r)
		r.Close()
		if errors.Is(err, errLegacyJournal) {
			s.mu.Lock()
			s.refused[name] = fmt.Errorf("durable: stream %q not recovered, its files left as they are: %s is a BRESJRN1 journal with records, which this version cannot replay; "+
				"run the previous version on this data directory once more and stop it with SIGTERM, whose final checkpoint leaves only empty journals", name, s.journalPath(name, seq))
			s.mu.Unlock()
			return Recovered{}, false
		}
		if err != nil || scan.base != seq {
			// Records in later journals assume this one's ops were applied;
			// stop replay here rather than leave a gap.
			badJournal = append(badJournal, seq)
			break
		}
		rec.Tail = append(rec.Tail, scan.records...)
		if scan.corrupt {
			badJournal = append(badJournal, seq)
			break
		}
		if scan.tornTail {
			rec.TornTail = true
			break
		}
	}
	for _, p := range s.paths(name, bad, badJournal) {
		s.quarantine(filepath.Base(p))
	}
	c.ckpts = slices.DeleteFunc(c.ckpts, func(seq uint64) bool { return slices.Contains(bad, seq) })
	c.journals = slices.DeleteFunc(c.journals, func(seq uint64) bool { return slices.Contains(badJournal, seq) })
	return rec, true
}

// QuarantineStream moves every file of a stream aside — the caller's
// escape hatch when a chain verifies structurally but fails semantically
// (e.g. a snapshot the sampler refuses to restore).
func (s *Store) QuarantineStream(name string) {
	for _, p := range s.detach(name) {
		s.quarantine(filepath.Base(p))
	}
}

// readFile slurps one file through the FS.
func (s *Store) readFile(path string) ([]byte, error) {
	r, err := s.fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// Stats is a point-in-time read of the store's counters.
type Stats struct {
	Checkpoints    uint64
	JournalAppends uint64
	Recoveries     uint64
	Quarantined    uint64
	WriteErrors    uint64
}

// StatsNow returns the store's counters.
func (s *Store) StatsNow() Stats {
	return Stats{
		Checkpoints:    s.checkpoints.Load(),
		JournalAppends: s.journalAppends.Load(),
		Recoveries:     s.recoveries.Load(),
		Quarantined:    s.quarantined.Load(),
		WriteErrors:    s.writeErrors.Load(),
	}
}

// Collect implements obs.Collector: the biasedres_durable_* family.
func (s *Store) Collect() []obs.Family {
	st := s.StatsNow()
	fams := []obs.Family{
		{Name: "biasedres_durable_checkpoints_total", Type: "counter",
			Help:    "Stream checkpoints written (crash-safe temp+fsync+rename).",
			Samples: []obs.Sample{{Value: float64(st.Checkpoints)}}},
		{Name: "biasedres_durable_journal_appends_total", Type: "counter",
			Help:    "Batches framed onto per-stream ops journals.",
			Samples: []obs.Sample{{Value: float64(st.JournalAppends)}}},
		{Name: "biasedres_durable_recoveries_total", Type: "counter",
			Help:    "Streams reconstructed from disk at startup.",
			Samples: []obs.Sample{{Value: float64(st.Recoveries)}}},
		{Name: "biasedres_durable_quarantined_total", Type: "counter",
			Help:    "Corrupt or unreadable files moved into the quarantine directory.",
			Samples: []obs.Sample{{Value: float64(st.Quarantined)}}},
		{Name: "biasedres_durable_write_errors_total", Type: "counter",
			Help:    "Checkpoint or journal write failures (the stream stays live; durability degrades).",
			Samples: []obs.Sample{{Value: float64(st.WriteErrors)}}},
	}
	age := obs.Family{Name: "biasedres_durable_last_checkpoint_age_seconds", Type: "gauge",
		Help: "Seconds since each stream's newest durable checkpoint."}
	now := time.Now()
	for _, c := range s.chains() {
		c.mu.Lock()
		last := c.lastCkpt
		c.mu.Unlock()
		if last.IsZero() {
			continue
		}
		age.Samples = append(age.Samples, obs.Sample{
			Labels: []obs.Label{{Key: "stream", Value: c.name}},
			Value:  now.Sub(last).Seconds(),
		})
	}
	if len(age.Samples) > 0 {
		fams = append(fams, age)
	}
	return fams
}
