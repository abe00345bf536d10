package server

import (
	"errors"
	"fmt"
	"time"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/stream"
)

// Durability wiring: with WithDurability enabled, every stream's sampler
// state survives process death. The moving parts:
//
//   - Stream creation writes checkpoint sequence 1 (the empty sampler and
//     its configuration) before the 201 is acknowledged, so a stream that
//     existed exists after a crash.
//   - Every applied ingest batch is framed onto the stream's append-only
//     journal (ops carry arrival indices, and explicit timestamps for
//     time-decay streams). Appends hit the OS immediately; fsyncs are
//     coalesced on JournalSyncInterval, bounding post-kill loss to that
//     window.
//   - A background checkpointer wakes on CheckpointInterval, skips
//     streams whose sampler mutation counter (core.VersionedSampler)
//     advanced fewer than CheckpointMinOps times, and for the rest cuts
//     the journal and marshals the sampler under the sampler lock, then
//     writes the checkpoint file outside every lock.
//   - Startup recovery (New) loads each stream's newest verifying
//     checkpoint, replays its journal tail, rebaselines with a fresh
//     checkpoint, and serves. Corrupt files are quarantined by the store,
//     never fatal.
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

// durableMeta renders a stream's configuration for its checkpoints.
func durableMeta(name string, req CreateRequest) durable.StreamMeta {
	return durable.StreamMeta{
		Name:      name,
		Policy:    req.Policy,
		Lambda:    req.Lambda,
		Capacity:  req.Capacity,
		Window:    req.Window,
		Tiers:     req.Tiers,
		TierRatio: req.TierRatio,
	}
}

// createRequestOf inverts durableMeta for recovery and transfer install.
// Checkpoints written without a policy predate policies: they hold the
// paper's variable reservoir.
func createRequestOf(meta durable.StreamMeta) CreateRequest {
	if meta.Policy == "" {
		meta.Policy = "variable"
	}
	return CreateRequest{
		Policy:    meta.Policy,
		Lambda:    meta.Lambda,
		Capacity:  meta.Capacity,
		Window:    meta.Window,
		Tiers:     meta.Tiers,
		TierRatio: meta.TierRatio,
	}
}

// journalOps converts an applied batch into journal ops.
func journalOps(batch []stream.Point) []durable.Op {
	ops := make([]durable.Op, len(batch))
	for i, p := range batch {
		ops[i] = durable.Op{P: p}
	}
	return ops
}

// appendJournal frames one applied batch onto the stream's journal. Called
// under the sampler lock (apply, the timed ingest path), so journal order
// matches apply order. Failures degrade durability, not availability: they
// are logged and counted, and ingest continues.
func (s *Server) appendJournal(name string, ops []durable.Op) {
	if s.durable == nil || len(ops) == 0 {
		return
	}
	if err := s.durable.Append(name, ops); err != nil {
		if s.log != nil {
			s.log.Warn("journal append failed", "stream", name, "error", err)
		}
	}
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

// cut is the one checkpoint cut of a live stream, shared by GET /snapshot,
// GET /transfer and the checkpointer. It captures (next, dim) under qmu and
// takes the sampler lock before letting qmu go, so the pair matches the
// marshaled sampler state; the marshal then runs under the sampler lock
// alone, never blocking ingest admission. rotate, when non-nil, runs under
// the same sampler lock just before the marshal with the sampler's
// version: it returns the sequence of the journal cut the checkpoint
// starts, or an error to abandon the cut. A cut with rotate also records
// the version it captured for the checkpointer's quiescence test.
func (s *Server) cut(name string, ms *managedStream, rotate func(ver uint64) (uint64, error)) (durable.Checkpoint, error) {
	ck := durable.Checkpoint{Seq: 1, Meta: durableMeta(name, ms.req)}
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
func (s *Server) checkpointStream(name string, ms *managedStream, force bool) bool {
	ck, err := s.cut(name, ms, func(ver uint64) (uint64, error) {
		if !force && ver-ms.lastCkptVer < s.dcfg.CheckpointMinOps {
			return 0, errQuiescent
		}
		// Journal <seq> then holds exactly the ops applied after this
		// snapshot: both happen under the sampler lock.
		return s.durable.Rotate(name)
	})
	if err == nil {
		err = s.durable.WriteCheckpoint(name, ck)
	}
	if err != nil {
		if !errors.Is(err, errQuiescent) && s.log != nil {
			s.log.Warn("checkpoint failed", "stream", name, "error", err)
		}
		return false
	}
	return true
}

// checkpointAll sweeps every stream once.
func (s *Server) checkpointAll(force bool) {
	for _, ns := range s.streamList() {
		s.checkpointStream(ns.name, ns.ms, force)
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

// runDurability is the background loop: journal fsyncs on the coalescing
// interval, checkpoints on the checkpoint interval.
func (s *Server) runDurability() {
	defer s.durWG.Done()
	ckpt := time.NewTicker(s.dcfg.CheckpointInterval)
	defer ckpt.Stop()
	sync := time.NewTicker(s.dcfg.JournalSyncInterval)
	defer sync.Stop()
	for {
		select {
		case <-s.durStop:
			return
		case <-sync.C:
			if err := s.durable.Sync(); err != nil && s.log != nil {
				s.log.Warn("journal sync failed", "error", err)
			}
		case <-ckpt.C:
			s.checkpointAll(false)
		}
	}
}

// applyOps applies journal ops to a sampler in order: time-decay samplers
// (including time-decay ladders) take AddAt for ops carrying a timestamp
// and Add otherwise, reproducing their clock; everything else takes the
// batch path. It returns how many ops were applied before an error.
func applyOps(sm core.Sampler, ops []durable.Op) (int, error) {
	td, timed := core.AsTimed(sm)
	if !timed {
		batch := make([]stream.Point, len(ops))
		for i, op := range ops {
			batch[i] = op.P
		}
		core.AddBatch(sm, batch)
		return len(ops), nil
	}
	for i, op := range ops {
		if !op.HasTS {
			td.Add(op.P)
			continue
		}
		if err := td.AddAt(op.P, op.TS); err != nil {
			return i, err
		}
	}
	return len(ops), nil
}

// replayTail applies a journal tail to a freshly restored sampler, in
// order, and advances the (next, dim) ingest bookkeeping past every
// replayed op. Install runs it for startup recovery and transfers alike —
// both turn a checkpoint + tail chain into a live sampler.
func replayTail(sampler core.Sampler, tail []durable.Record, next uint64, dim int) (uint64, int, error) {
	for _, r := range tail {
		if _, err := applyOps(sampler, r.Ops); err != nil {
			return next, dim, fmt.Errorf("replaying journal: %w", err)
		}
		for _, op := range r.Ops {
			if op.P.Index > next {
				next = op.P.Index
			}
			if dim == 0 && len(op.P.Values) > 0 {
				dim = len(op.P.Values)
			}
		}
	}
	return next, dim, nil
}

// recoverDurable rebuilds every stream the data directory holds. Per-file
// corruption was already quarantined by the store; per-stream semantic
// failures (a snapshot that does not restore) quarantine the stream's
// files and skip it. Only a systemic scan failure is returned.
func (s *Server) recoverDurable() error {
	recs, err := s.durable.Recover()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		name := rec.Checkpoint.Meta.Name
		// Rebaseline: one fresh checkpoint above every sequence the disk
		// holds (including corrupt newer generations), so the replayed
		// state is durable again before the stream serves traffic.
		from := &durable.Transfer{Checkpoint: rec.Checkpoint, Tail: rec.Tail}
		if _, _, err := s.install(name, createRequestOf(rec.Checkpoint.Meta), from, rec.MaxSeq+1); err != nil {
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
