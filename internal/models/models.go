// Package models is the online model-management subsystem from Hentschel,
// Haas and Tian ("Temporally-Biased Sampling for Online Model Management",
// arXiv 1801.09709), built on this library's biased samples: a model is a
// k-NN classifier whose training set is a *frozen copy* of the stream's
// reservoir, periodically refreshed ("retrained") when the stream drifts
// away from it.
//
// The lifecycle per managed model:
//
//   - Every arriving point is scored prequentially against the frozen
//     training set (test-then-train: the point is classified before the
//     reservoir that will eventually absorb it is consulted again), feeding
//     cumulative and rolling accuracy plus a confusion matrix.
//   - Every CheckEvery arrivals a drift detector (internal/drift) compares
//     short- and long-horizon means over the *live* reservoir snapshot. A
//     firing detector — or a completed rolling window scoring far below the
//     best window this model family has achieved (the z-score's transient
//     decays within ~LongH arrivals of a shift, the accuracy collapse
//     persists until a retrain on clean data recovers it), or a
//     staleness cap — triggers a retrain: the current snapshot is
//     materialized as the new training set.
//
// Because retraining reads whatever sampler the stream runs, the subsystem
// is where the sampler families differ operationally: a time-biased sample
// (Aggarwal's schemes, T-TBS, R-TBS) hands the retrain a recency-weighted
// training set, while an unbiased one hands it mostly stale points — the
// model-staleness experiments in cmd/experiments quantify exactly that.
package models

import (
	"fmt"
	"sync"

	"biasedres/internal/classify"
	"biasedres/internal/core"
	"biasedres/internal/drift"
	"biasedres/internal/stream"
)

// Config parameterizes a managed model. It is also the body of POST
// /streams/{name}/model, where zero values take the server's defaults:
// Dim the stream's dimensionality, ShortH 100 and LongH 10*ShortH.
type Config struct {
	// K is the neighbour count of the k-NN classifier (default 1, the
	// paper's choice).
	K int `json:"k,omitempty"`
	// Dim is the stream dimensionality the drift detector monitors.
	Dim int `json:"dim,omitempty"`
	// ShortH and LongH are the drift detector's horizons in arrivals
	// (0 < ShortH < LongH).
	ShortH uint64 `json:"short_h,omitempty"`
	LongH  uint64 `json:"long_h,omitempty"`
	// Threshold is the drift z-score above which a retrain is triggered
	// (default 4).
	Threshold float64 `json:"threshold,omitempty"`
	// CheckEvery is the number of arrivals between drift checks (default
	// 64). Checks read the stream's snapshot cache, so the cost of a small
	// value is estimator work, not lock contention.
	CheckEvery uint64 `json:"check_every,omitempty"`
	// MinGap is the minimum number of arrivals between retrains (default
	// ShortH): a hard debounce so a persistent drift episode does not
	// retrain on every check.
	MinGap uint64 `json:"min_gap,omitempty"`
	// MaxStaleness forces a retrain when the training set is older than
	// this many arrivals even without a drift signal; 0 disables the cap.
	MaxStaleness uint64 `json:"max_staleness,omitempty"`
	// Window is the rolling-accuracy window length in scored points
	// (default 256).
	Window uint64 `json:"window,omitempty"`
}

// accuracyDropDrift is the accuracy-collapse drift criterion: a completed
// rolling window scoring this far below the best completed window since
// attach fires a retrain even when the detector's z-score misses the shift.
// The baseline is the best window, not cumulative accuracy — after a retrain
// lands on a still-mixed reservoir, cumulative accuracy decays toward the
// degraded level and would stop the criterion from firing again, while the
// best-window baseline keeps retrains coming until the window recovers.
const accuracyDropDrift = 0.2

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 1
	}
	if c.Threshold == 0 {
		c.Threshold = 4
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 64
	}
	if c.MinGap == 0 {
		c.MinGap = c.ShortH
	}
	if c.Window == 0 {
		c.Window = 256
	}
	return c
}

// trainSet is a frozen training set exposed to classify.KNN through the
// core.Sampler interface. It never mutates: Add is a no-op by construction
// (the model replaces the whole set on retrain).
type trainSet struct {
	pts []stream.Point
	t   uint64
}

var _ core.Sampler = (*trainSet)(nil)

func (f *trainSet) Add(stream.Point)       {}
func (f *trainSet) Points() []stream.Point { return f.pts }
func (f *trainSet) Sample() []stream.Point {
	pts := make([]stream.Point, len(f.pts))
	copy(pts, f.pts)
	return pts
}
func (f *trainSet) Len() int                       { return len(f.pts) }
func (f *trainSet) Capacity() int                  { return len(f.pts) }
func (f *trainSet) Processed() uint64              { return f.t }
func (f *trainSet) InclusionProb(r uint64) float64 { return 0 }

// Model is one managed classifier. All methods are safe for concurrent
// use; the scoring path holds the model's own lock only, never a sampler
// lock.
type Model struct {
	cfg Config
	det *drift.Detector

	mu        sync.Mutex
	clf       *classify.KNN
	train     *trainSet
	trainedAt uint64 // stream position of the training snapshot
	lastT     uint64 // newest arrival index observed
	lastCheck uint64 // stream position of the last drift check
	lastZ     float64

	seen, scored, correct uint64
	winScored, winCorrect uint64
	winAcc                float64
	bestWinAcc            float64
	winOK                 bool

	checks, retrains, driftRetrains, forcedRetrains uint64
	conf                                            *classify.Confusion
}

// New returns a model with an empty training set; the first ObserveBatch
// materializes one from the stream snapshot. Config zero values take the
// documented defaults; Dim, ShortH and LongH must be set.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.K <= 0 {
		return nil, fmt.Errorf("models: k must be positive, got %d", cfg.K)
	}
	det, err := drift.NewHorizonDetector(cfg.ShortH, cfg.LongH, cfg.Dim, cfg.Threshold)
	if err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, det: det, train: &trainSet{}, conf: classify.NewConfusion()}
	m.clf, err = classify.NewKNN(cfg.K, m.train)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Config returns the model's effective (defaulted) configuration.
func (m *Model) Config() Config { return m.cfg }

// ObserveBatch scores a batch of just-ingested points against the frozen
// training set, then runs the drift/staleness retrain policy. snap must
// capture the stream's reservoir *including* the batch; it is only invoked
// when a drift check or retrain is due, so the common case costs one scan
// of the training set per point and no snapshot work.
func (m *Model) ObserveBatch(pts []stream.Point, snap func() *core.Snapshot) {
	if len(pts) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range pts {
		m.seen++
		if len(m.train.pts) > 0 {
			pred, err := m.clf.Classify(pts[i].Values)
			if err == nil {
				m.score(pts[i].Label, pred)
			}
		}
	}
	if last := pts[len(pts)-1].Index; last > m.lastT {
		m.lastT = last
	}
	m.maybeRetrain(snap)
}

// score records one prequential outcome. Caller holds m.mu.
func (m *Model) score(trueLabel, predicted int) {
	m.scored++
	m.winScored++
	m.conf.Observe(trueLabel, predicted)
	if predicted == trueLabel {
		m.correct++
		m.winCorrect++
	}
	if m.winScored >= m.cfg.Window {
		m.winAcc = float64(m.winCorrect) / float64(m.winScored)
		if m.winAcc > m.bestWinAcc {
			m.bestWinAcc = m.winAcc
		}
		m.winOK = true
		m.winScored, m.winCorrect = 0, 0
	}
}

// maybeRetrain runs the retrain policy at the current position. Caller
// holds m.mu.
func (m *Model) maybeRetrain(snap func() *core.Snapshot) {
	// An empty training set retrains eagerly: the model is useless until
	// the first materialization.
	if len(m.train.pts) == 0 {
		m.retrainFrom(snap())
		return
	}
	if m.lastT-m.lastCheck < m.cfg.CheckEvery && (m.cfg.MaxStaleness == 0 || m.lastT-m.trainedAt < m.cfg.MaxStaleness) {
		return
	}
	sn := snap()
	m.lastCheck = m.lastT
	fired := false
	if rep, err := m.det.CheckOn(sn); err == nil {
		m.checks++
		m.lastZ = rep.MaxZ
		fired = rep.Drift
	}
	// The z-score contrasts the snapshot's short and long horizons, a
	// signal that fades within ~LongH arrivals of a shift — a check cadence
	// sparser than that transient can miss it entirely and leave the model
	// misclassifying forever. The model's own prequential record has no
	// such window: a completed rolling window scoring far below the best
	// window achieved since attach is drift evidence whenever the check
	// runs, and keeps firing (MinGap-debounced) until a retrain lands on a
	// post-shift reservoir and the window recovers.
	if !fired && m.winOK && m.bestWinAcc-m.winAcc >= accuracyDropDrift {
		fired = true
	}
	stale := m.cfg.MaxStaleness > 0 && sn.T-m.trainedAt >= m.cfg.MaxStaleness
	if !fired && !stale {
		return
	}
	if sn.T-m.trainedAt < m.cfg.MinGap {
		return
	}
	if m.retrainFrom(sn) {
		if fired {
			m.driftRetrains++
		} else {
			m.forcedRetrains++
		}
	}
}

// retrainFrom freezes the snapshot as the new training set; it reports
// whether a non-empty set was materialized. Caller holds m.mu.
func (m *Model) retrainFrom(sn *core.Snapshot) bool {
	if sn == nil || len(sn.Points) == 0 {
		return false
	}
	pts := make([]stream.Point, len(sn.Points))
	copy(pts, sn.Points)
	m.train.pts = pts
	m.train.t = sn.T
	m.trainedAt = sn.T
	// The snapshot position is a witnessed stream position: advancing lastT
	// here keeps train_age non-negative when a model is attached to a stream
	// with history before it has observed any arrivals itself.
	if sn.T > m.lastT {
		m.lastT = sn.T
	}
	m.retrains++
	// Restart the in-progress rolling window so the next completed window
	// measures the new training set only; bestWinAcc deliberately survives
	// the retrain as the recovery target.
	m.winScored, m.winCorrect = 0, 0
	return true
}

// Retrain forces a retrain from the given snapshot regardless of drift
// state — the POST /model route uses it for operator-initiated refreshes.
func (m *Model) Retrain(sn *core.Snapshot) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retrainFrom(sn)
}

// Stats is a point-in-time read of the model's state.
type Stats struct {
	K            int     `json:"k"`
	Dim          int     `json:"dim"`
	ShortH       uint64  `json:"short_h"`
	LongH        uint64  `json:"long_h"`
	Threshold    float64 `json:"threshold"`
	TrainSize    int     `json:"train_size"`
	TrainedAt    uint64  `json:"trained_at"`
	Staleness    uint64  `json:"staleness"`
	TrainAge     float64 `json:"train_age"`
	Seen         uint64  `json:"seen"`
	Scored       uint64  `json:"scored"`
	Accuracy     float64 `json:"accuracy"`
	WindowAcc    float64 `json:"window_accuracy"`
	WindowOK     bool    `json:"window_ready"`
	Checks       uint64  `json:"drift_checks"`
	LastZ        float64 `json:"last_z"`
	Retrains     uint64  `json:"retrains"`
	DriftFired   uint64  `json:"drift_retrains"`
	ForcedStale  uint64  `json:"staleness_retrains"`
	MaxStaleness uint64  `json:"max_staleness"`
}

// Stats returns the model's current state. Accuracy is -1 before any point
// has been scored.
func (m *Model) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		K: m.cfg.K, Dim: m.cfg.Dim, ShortH: m.cfg.ShortH, LongH: m.cfg.LongH,
		Threshold: m.cfg.Threshold, MaxStaleness: m.cfg.MaxStaleness,
		TrainSize: len(m.train.pts), TrainedAt: m.trainedAt,
		Seen: m.seen, Scored: m.scored,
		Checks: m.checks, LastZ: m.lastZ,
		Retrains: m.retrains, DriftFired: m.driftRetrains, ForcedStale: m.forcedRetrains,
		WindowAcc: m.winAcc, WindowOK: m.winOK,
	}
	if m.lastT > m.trainedAt {
		st.Staleness = m.lastT - m.trainedAt
	}
	// Mean age of the training points relative to the stream head: unlike
	// Staleness (how long ago the set was materialized) this reflects the
	// recency profile of the sampler the set was drawn from.
	if len(m.train.pts) > 0 {
		var ages float64
		for i := range m.train.pts {
			ages += float64(m.lastT) - float64(m.train.pts[i].Index)
		}
		st.TrainAge = ages / float64(len(m.train.pts))
	}
	if m.scored > 0 {
		st.Accuracy = float64(m.correct) / float64(m.scored)
	} else {
		st.Accuracy = -1
	}
	return st
}

// ConfusionCell is one (true label, predicted label) count of the model's
// prequential confusion matrix.
type ConfusionCell struct {
	True      int    `json:"true"`
	Predicted int    `json:"predicted"`
	Count     uint64 `json:"count"`
}

// Eval is the full evaluation view served by GET /model/eval.
type Eval struct {
	Stats     Stats           `json:"stats"`
	MacroF1   float64         `json:"macro_f1"`
	Labels    []int           `json:"labels"`
	Confusion []ConfusionCell `json:"confusion"`
}

// Eval returns the model's evaluation state: headline stats plus the
// confusion matrix and macro-F1. MacroF1 is -1 before any scored point.
func (m *Model) Eval() Eval {
	ev := Eval{Stats: m.Stats(), MacroF1: -1}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f1, err := m.conf.MacroF1(); err == nil {
		ev.MacroF1 = f1
	}
	ev.Labels = m.conf.Labels()
	for _, tr := range ev.Labels {
		for _, p := range ev.Labels {
			if n := m.conf.Count(tr, p); n > 0 {
				ev.Confusion = append(ev.Confusion, ConfusionCell{True: tr, Predicted: p, Count: n})
			}
		}
	}
	return ev
}
