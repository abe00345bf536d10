package server

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/stream"
	"biasedres/internal/wire"
)

// Durability wiring: with WithDurability enabled, every stream's sampler
// state survives process death. The moving parts:
//
//   - Stream creation writes checkpoint sequence 1 (the empty sampler and
//     its configuration) before the 201 is acknowledged, so a stream that
//     existed exists after a crash.
//   - Every applied ingest batch is framed onto the stream's append-only
//     journal as it was applied, in the batch layout of internal/wire
//     (arrival indices, labels, weights, timestamps, values). Appends hit
//     the OS immediately; fsyncs are coalesced on JournalSyncInterval,
//     bounding post-kill loss to that window.
//   - A background checkpointer wakes on CheckpointInterval, skips
//     streams whose sampler mutation counter (core.VersionedSampler)
//     advanced fewer than CheckpointMinOps times, and for the rest cuts
//     the journal and marshals the sampler under the sampler lock, then
//     writes the checkpoint file outside every lock.
//   - Startup recovery (New) loads each stream's newest verifying
//     checkpoint, replays its journal tail, rebaselines with a fresh
//     checkpoint, and serves. Corrupt files are quarantined by the store,
//     never fatal; a stream whose tail is a BRESJRN1 journal with records
//     is left on disk, absent, and its name refused until its files go.
//   - Close drains the ingest shards, takes a final checkpoint of every
//     stream, and closes the journals.

// DurabilityConfig tunes the durability layer. Zero values pick defaults.
type DurabilityConfig struct {
	// CheckpointInterval is the background checkpointer's wake period
	// (default 10s).
	CheckpointInterval time.Duration
	// CheckpointMinOps is the minimum number of sampler mutations since a
	// stream's last checkpoint for the checkpointer to write a new one
	// (default 1 — any change; quiescent streams are always skipped).
	CheckpointMinOps uint64
	// JournalSyncInterval is the journal fsync coalescing window (default
	// 100ms). After a hard kill, at most this window of acknowledged
	// points can be lost.
	JournalSyncInterval time.Duration
}

func (cfg DurabilityConfig) withDefaults() DurabilityConfig {
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 10 * time.Second
	}
	if cfg.CheckpointMinOps == 0 {
		cfg.CheckpointMinOps = 1
	}
	if cfg.JournalSyncInterval <= 0 {
		cfg.JournalSyncInterval = 100 * time.Millisecond
	}
	return cfg
}

// WithDurability persists every stream to store: recovery runs during
// New, and the server starts a checkpointer goroutine plus a journal
// fsync loop. Servers with durability enabled must be Closed.
func WithDurability(store *durable.Store, cfg DurabilityConfig) Option {
	return func(s *Server) {
		s.durable = store
		s.dcfg = cfg.withDefaults()
	}
}

// appendJournal frames the first n points of an applied batch onto the
// stream's journal. Called under the sampler lock by apply, so journal
// order matches apply order. Failures degrade durability, not
// availability: they are logged and counted, and ingest continues.
func (s *Server) appendJournal(name string, f *wire.Frame, n int) {
	if n == 0 {
		return
	}
	if n < f.Count {
		f = head(f, n)
	}
	if err := s.durable.Append(name, f); err != nil {
		if s.log != nil {
			s.log.Warn("journal append failed", "stream", name, "error", err)
		}
	}
}

// head is a sealed batch cut to its first n points.
func head(f *wire.Frame, n int) *wire.Frame {
	h := *f
	h.Count, h.Values, h.Labels = n, f.Values[:n*f.Dim], cut(f.Labels, n)
	h.Indices, h.Weights, h.TS, h.HasTS = cut(f.Indices, n), cut(f.Weights, n), cut(f.TS, n), cut(f.HasTS, n)
	return &h
}

// cut is s's first n elements, or nil for an absent column.
func cut[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	return s[:n]
}

// version reads a sampler's mutation counter; every core sampler keeps one.
func version(sm core.Sampler) uint64 {
	if vs, ok := sm.(core.VersionedSampler); ok {
		return vs.Version()
	}
	return 0
}

// errQuiescent abandons a checkpointer cut of a stream that has not
// changed enough since its last checkpoint.
var errQuiescent = errors.New("stream quiescent since its last checkpoint")

// cut is the one checkpoint cut of a live stream, shared by GET /transfer
// and the checkpointer. It captures (next, dim) under qmu and
// takes the sampler lock before letting qmu go, so the pair matches the
// marshaled sampler state; the marshal then runs under the sampler lock
// alone, never blocking ingest admission. rotate, when non-nil, runs under
// the same sampler lock just before the marshal with the sampler's
// version: it returns the sequence of the journal cut the checkpoint
// starts, or an error to abandon the cut. A cut with rotate also records
// the version it captured for the checkpointer's quiescence test.
func (s *Server) cut(ms *managedStream, rotate func(ver uint64) (uint64, error)) (durable.Checkpoint, error) {
	ck := durable.Checkpoint{Seq: 1, Name: ms.name, Config: ms.req}
	var err error
	ms.qmu.Lock()
	ck.Next, ck.Dim = ms.next, ms.dim
	ms.sm.View(func(sm core.Sampler) {
		ms.qmu.Unlock()
		ver := version(sm)
		if rotate != nil {
			if ck.Seq, err = rotate(ver); err != nil {
				return
			}
		}
		if ck.Snapshot, err = sm.(core.PersistentSampler).MarshalBinary(); err == nil && rotate != nil {
			ms.lastCkptVer = ver
		}
	})
	return ck, err
}

// checkpointStream cuts and writes one stream's checkpoint. force skips
// the quiescence test (restore, shutdown, retention). It returns false when
// no checkpoint was written.
func (s *Server) checkpointStream(ms *managedStream, force bool) bool {
	ck, err := s.cut(ms, func(ver uint64) (uint64, error) {
		if !force && ver-ms.lastCkptVer < s.dcfg.CheckpointMinOps {
			return 0, errQuiescent
		}
		// Journal <seq> then holds exactly the ops applied after this
		// snapshot: both happen under the sampler lock.
		return s.durable.Rotate(ms.name)
	})
	if err == nil {
		err = s.durable.WriteCheckpoint(ms.name, ck)
	}
	if err != nil {
		if !errors.Is(err, errQuiescent) && s.log != nil {
			s.log.Warn("checkpoint failed", "stream", ms.name, "error", err)
		}
		return false
	}
	return true
}

// checkpointAll sweeps every stream once.
func (s *Server) checkpointAll(force bool) {
	for _, ms := range s.streamList() {
		s.checkpointStream(ms, force)
	}
}

// CheckpointNow synchronously checkpoints every stream regardless of
// quiescence — the hook shutdown and the recovery tests use. It is a
// no-op without durability.
func (s *Server) CheckpointNow() {
	if s.durable == nil {
		return
	}
	s.checkpointAll(true)
}

// runDurability starts the background loops: journal fsyncs on the
// coalescing interval and checkpoints on the checkpoint interval. Each
// runs on its own goroutine, so a long checkpoint pass never holds back
// the fsyncs that bound acknowledged-point loss; Sync and Rotate
// serialize on each stream's chain lock.
func (s *Server) runDurability() {
	s.every(s.dcfg.JournalSyncInterval, func() {
		if err := s.durable.Sync(); err != nil && s.log != nil {
			s.log.Warn("journal sync failed", "error", err)
		}
	})
	s.every(s.dcfg.CheckpointInterval, func() { s.checkpointAll(false) })
}

// every runs fn on its own goroutine each interval until Close closes
// stop.
func (s *Server) every(interval time.Duration, fn func()) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// applyBatch applies batch f to a sampler, live or in journal replay, as
// rows built in pts's storage: time-decay samplers (including time-decay
// ladders) take AddAt for points carrying a timestamp and Add otherwise,
// reproducing their clock; everything else takes the batch path. A
// time-decay sampler first checks the batch against its clock
// (checkClock), so a violation refuses it with nothing applied. It
// returns the rows and how many were applied before an error.
func applyBatch(sm core.Sampler, f *wire.Frame, pts []stream.Point) ([]stream.Point, int, error) {
	pts = f.Points(pts)
	td, timed := core.AsTimed(sm)
	if !timed {
		core.AddBatch(sm, pts)
		return pts, len(pts), nil
	}
	if err := checkClock(td.Now(), f); err != nil {
		return pts, 0, err
	}
	for i, p := range pts {
		if f.HasTS == nil || !f.HasTS[i] {
			td.Add(p)
			continue
		}
		if err := td.AddAt(p, f.TS[i]); err != nil {
			return pts, i, err
		}
	}
	return pts, len(pts), nil
}

// resume replays from's journal tail, in order, onto a sampler restored
// from from's checkpoint and returns the stream's (next, dim) ingest
// bookkeeping, advanced past every replayed op. It refuses bookkeeping
// the sampler contradicts: a next behind the points already processed
// would hand out arrival indices twice, and a dim other than the sample's
// would refuse every later ingest. A dim of 0 adopts the sample's.
func resume(sampler core.Sampler, from *durable.Recovered) (uint64, int, error) {
	next, dim := from.Checkpoint.Next, from.Checkpoint.Dim
	var pts []stream.Point
	for _, f := range from.Tail {
		var err error
		if pts, _, err = applyBatch(sampler, f, pts); err != nil {
			return 0, 0, fmt.Errorf("replaying journal: %w", err)
		}
		for i := range f.Count {
			next = max(next, f.Index(i))
		}
		for _, k := range f.Lens {
			dim = cmp.Or(dim, int(k))
		}
		dim = cmp.Or(dim, f.Dim)
	}
	if p := sampler.Processed(); next < p {
		return 0, 0, fmt.Errorf("checkpoint next index %d is behind the %d points its sampler processed", next, p)
	}
	pd, err := pointsDim(sampler.Points())
	if err != nil {
		return 0, 0, err
	}
	if dim == 0 {
		dim = pd
	} else if pd != 0 && pd != dim {
		return 0, 0, fmt.Errorf("checkpoint dim %d disagrees with its points' dim %d", dim, pd)
	}
	return next, dim, nil
}

// recoverDurable rebuilds every stream the data directory holds. Per-file
// corruption was already quarantined by the store; per-stream semantic
// failures (a snapshot that does not restore) quarantine the stream's
// files and skip it. A stream the store refused (a BRESJRN1 journal with
// records) is logged at Error and stays absent. Only a systemic scan
// failure is returned.
func (s *Server) recoverDurable() error {
	recs, err := s.durable.Recover()
	if err != nil {
		return err
	}
	if s.log != nil {
		for _, err := range s.durable.Refused() {
			s.log.Error("stream not recovered", "error", err)
		}
	}
	for _, rec := range recs {
		name := rec.Checkpoint.Name
		// Rebaseline: one fresh checkpoint above every sequence the disk
		// holds (including corrupt newer generations), so the replayed
		// state is durable again before the stream serves traffic.
		if _, _, err := s.install(name, rec.Checkpoint.Config, &rec, rec.MaxSeq+1); err != nil {
			s.durable.QuarantineStream(name)
			if s.log != nil {
				s.log.Warn("stream recovery failed; files quarantined", "stream", name, "error", err)
			}
			continue
		}
		if s.log != nil {
			s.log.Info("stream recovered", "stream", name,
				"seq", rec.Checkpoint.Seq, "replayed_records", len(rec.Tail), "torn_tail", rec.TornTail)
		}
	}
	return nil
}
