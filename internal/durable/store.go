package durable

import (
	"errors"
	"fmt"
	"io"
	"net/url"
	"path/filepath"
	"slices"
	"sort"
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

// writeCheckpointFile writes ck's bytes crash-safely: temp file, fsync,
// atomic rename over the final name, directory fsync.
func (s *Store) writeCheckpointFile(name string, ck Checkpoint) error {
	data, err := EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	final := s.ckptPath(name, ck.Seq)
	tmp := final + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: closing %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: publishing %s: %w", final, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("durable: syncing data dir: %w", err)
	}
	return nil
}

// openJournal opens (creating) the journal for base seq and writes its
// header. The header is synced immediately so recovery can always tell
// which checkpoint the journal follows.
func (s *Store) openJournal(name string, seq uint64) (File, error) {
	path := s.journalPath(name, seq)
	f, err := s.fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("durable: creating journal %s: %w", path, err)
	}
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
	if err := s.writeCheckpointFile(name, ck); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	j, err := s.openJournal(name, ck.Seq)
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
	s.prune(name, ck.Seq)
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
	c := s.chain(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return fmt.Errorf("durable: stream %q has no active journal", name)
	}
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
	s.mu.Lock()
	chains := make([]*streamChain, 0, len(s.streams))
	for _, c := range s.streams {
		chains = append(chains, c)
	}
	s.mu.Unlock()
	var firstErr error
	for _, c := range chains {
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
	c := s.chain(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return 0, fmt.Errorf("durable: stream %q has no active journal", name)
	}
	if err := c.journal.Sync(); err != nil {
		s.writeErrors.Add(1)
		return 0, fmt.Errorf("durable: syncing journal of %q before rotation: %w", name, err)
	}
	c.dirty = false
	next := c.seq + 1
	j, err := s.openJournal(name, next)
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
	c := s.chain(name)
	if err := s.writeCheckpointFile(name, ck); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	c.mu.Lock()
	c.lastCkpt = time.Now()
	c.mu.Unlock()
	s.checkpoints.Add(1)
	s.prune(name, ck.Seq)
	return nil
}

// prune deletes checkpoint generations older than the retention window
// and journals that no retained checkpoint could replay. Failed writes
// leave gaps in the sequence numbering; pruning keys off the files that
// actually exist.
func (s *Store) prune(name string, latest uint64) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var ckptSeqs []uint64
	var journalSeqs []uint64
	for _, e := range entries {
		n, seq, kind, ok := parseFile(e)
		if !ok || n != name {
			continue
		}
		switch kind {
		case "ckpt":
			ckptSeqs = append(ckptSeqs, seq)
		case "journal":
			journalSeqs = append(journalSeqs, seq)
		}
	}
	sort.Slice(ckptSeqs, func(i, j int) bool { return ckptSeqs[i] > ckptSeqs[j] })
	if len(ckptSeqs) <= checkpointRetention {
		return
	}
	// Keep the newest retention checkpoints; every journal at or above the
	// oldest retained checkpoint is still needed for fallback replay.
	floor := ckptSeqs[checkpointRetention-1]
	for _, seq := range ckptSeqs[checkpointRetention:] {
		_ = s.fs.Remove(s.ckptPath(name, seq))
	}
	for _, seq := range journalSeqs {
		if seq < floor {
			_ = s.fs.Remove(s.journalPath(name, seq))
		}
	}
	_ = s.fs.SyncDir(s.dir)
}

// Remove drops every file of a deleted stream, including its tmp leftovers.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	c, ok := s.streams[name]
	delete(s.streams, name)
	s.mu.Unlock()
	if ok {
		c.mu.Lock()
		if c.journal != nil {
			c.journal.Close()
			c.journal = nil
		}
		c.mu.Unlock()
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		n, _, _, okf := parseFile(strings.TrimSuffix(e, ".tmp"))
		if okf && n == name {
			_ = s.fs.Remove(filepath.Join(s.dir, e))
		}
	}
	return s.fs.SyncDir(s.dir)
}

// Close syncs and closes every journal. The store is unusable afterwards.
func (s *Store) Close() error {
	err := s.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.streams {
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
// (unreadable data directory).
func (s *Store) Recover() ([]Recovered, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: scanning %s: %w", s.dir, err)
	}
	type files struct {
		ckpts    []uint64
		journals []uint64
	}
	streams := make(map[string]*files)
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
		f := streams[name]
		if f == nil {
			f = &files{}
			streams[name] = f
		}
		switch kind {
		case "ckpt":
			f.ckpts = append(f.ckpts, seq)
		case "journal":
			f.journals = append(f.journals, seq)
		}
	}

	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []Recovered
	for _, name := range names {
		f := streams[name]
		rec, ok := s.recoverStream(name, f.ckpts, f.journals)
		if !ok {
			continue
		}
		s.recoveries.Add(1)
		out = append(out, rec)
	}
	return out, nil
}

// recoverStream reconstructs one stream from its on-disk sequences.
func (s *Store) recoverStream(name string, ckpts, journals []uint64) (Recovered, bool) {
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] }) // newest first
	sort.Slice(journals, func(i, j int) bool { return journals[i] < journals[j] })
	maxSeq := uint64(0)
	for _, seq := range ckpts {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	for _, seq := range journals {
		if seq > maxSeq {
			maxSeq = seq
		}
	}

	var ck Checkpoint
	found := false
	// Checkpoints that fail verification are quarantined only once the
	// stream is known to recover, so a refused stream keeps every file.
	var bad []uint64
	for _, seq := range ckpts {
		data, err := s.readFile(s.ckptPath(name, seq))
		if err == nil {
			ck, err = DecodeCheckpoint(data)
		}
		if err != nil || ck.Seq != seq || ck.Meta.Name != name {
			bad = append(bad, seq)
			continue
		}
		found = true
		break
	}
	if !found {
		// No checkpoint verified: quarantine the journals too — without a
		// base state their records cannot be applied.
		for _, seq := range bad {
			s.quarantineSeq(name, seq, "ckpt")
		}
		for _, seq := range journals {
			s.quarantineSeq(name, seq, "journal")
		}
		return Recovered{}, false
	}

	rec := Recovered{Checkpoint: ck, MaxSeq: maxSeq}
	expect := ck.Seq
	for _, seq := range journals {
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
			s.quarantineSeq(name, seq, "journal")
			// Records in later journals assume this one's ops were applied;
			// stop replay here rather than leave a gap.
			break
		}
		rec.Tail = append(rec.Tail, scan.records...)
		if scan.corrupt {
			s.quarantineSeq(name, seq, "journal")
			break
		}
		if scan.tornTail {
			rec.TornTail = true
			break
		}
	}
	for _, seq := range bad {
		s.quarantineSeq(name, seq, "ckpt")
	}
	return rec, true
}

func (s *Store) quarantineSeq(name string, seq uint64, kind string) {
	s.quarantine(fmt.Sprintf("st-%s.%d.%s", escapeName(name), seq, kind))
}

// QuarantineStream moves every file of a stream aside — the caller's
// escape hatch when a chain verifies structurally but fails semantically
// (e.g. a snapshot the sampler refuses to restore).
func (s *Store) QuarantineStream(name string) {
	s.mu.Lock()
	if c, ok := s.streams[name]; ok {
		c.mu.Lock()
		if c.journal != nil {
			c.journal.Close()
			c.journal = nil
		}
		c.mu.Unlock()
		delete(s.streams, name)
	}
	s.mu.Unlock()
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n, _, _, ok := parseFile(e)
		if ok && n == name {
			s.quarantine(e)
		}
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
	s.mu.Lock()
	names := make([]string, 0, len(s.streams))
	for name := range s.streams {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	now := time.Now()
	for _, name := range names {
		s.mu.Lock()
		c, ok := s.streams[name]
		s.mu.Unlock()
		if !ok {
			continue
		}
		c.mu.Lock()
		last := c.lastCkpt
		c.mu.Unlock()
		if last.IsZero() {
			continue
		}
		age.Samples = append(age.Samples, obs.Sample{
			Labels: []obs.Label{{Key: "stream", Value: name}},
			Value:  now.Sub(last).Seconds(),
		})
	}
	if len(age.Samples) > 0 {
		fams = append(fams, age)
	}
	return fams
}
