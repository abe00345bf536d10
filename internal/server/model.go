package server

import (
	"net/http"

	"biasedres/internal/models"
	"biasedres/internal/obs"
	"biasedres/internal/stream"
)

// Model management routes: each stream can carry at most one managed model
// (internal/models) — a k-NN classifier over a frozen copy of the stream's
// biased sample, scored prequentially on every ingested point and retrained
// when the drift detector fires or the staleness cap is hit.
//
//	POST   /streams/{name}/model       attach a model {"k":1,"short_h":100,"long_h":1000,...}
//	GET    /streams/{name}/model       model stats (accuracy, staleness, retrains)
//	GET    /streams/{name}/model/eval  full evaluation: confusion matrix, macro-F1
//	DELETE /streams/{name}/model       detach the model
//
// The model rides the ingest path: scoring happens on the ingest worker (or
// the synchronous handler) after the batch is applied, outside every sampler
// lock — drift checks and retrains read the stream's snapshot cache.

// ModelRequest is the body of POST /streams/{name}/model. Zero values take
// defaults: k=1, dim=the stream's dimensionality, short_h=100,
// long_h=10*short_h, threshold=4, check_every=64, min_gap=short_h,
// window=256. max_staleness=0 disables the forced-retrain cap.
type ModelRequest struct {
	K            int     `json:"k"`
	Dim          int     `json:"dim"`
	ShortH       uint64  `json:"short_h"`
	LongH        uint64  `json:"long_h"`
	Threshold    float64 `json:"threshold"`
	CheckEvery   uint64  `json:"check_every"`
	MinGap       uint64  `json:"min_gap"`
	MaxStaleness uint64  `json:"max_staleness"`
	Window       uint64  `json:"window"`
}

func (s *Server) handleModelCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ms, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	var req ModelRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Dim == 0 {
		ms.qmu.Lock()
		req.Dim = ms.dim
		ms.qmu.Unlock()
	}
	if req.Dim <= 0 {
		httpError(w, http.StatusBadRequest,
			"stream %q has no dimensionality yet; ingest points first or pass dim", name)
		return
	}
	if req.ShortH == 0 {
		req.ShortH = 100
	}
	if req.LongH == 0 {
		req.LongH = 10 * req.ShortH
	}
	m, err := models.New(models.Config{
		K: req.K, Dim: req.Dim, ShortH: req.ShortH, LongH: req.LongH,
		Threshold: req.Threshold, CheckEvery: req.CheckEvery, MinGap: req.MinGap,
		MaxStaleness: req.MaxStaleness, Window: req.Window,
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ms.model.CompareAndSwap(nil, m) {
		httpError(w, http.StatusConflict, "stream %q already has a model; DELETE it first", name)
		return
	}
	// Materialize the initial training set from whatever the reservoir
	// holds right now; an empty stream trains on the first ingested batch.
	m.Retrain(ms.sm.AcquireSnapshot())
	if s.log != nil {
		s.log.Info("model attached", "stream", name, "k", m.Config().K,
			"dim", req.Dim, "short_h", req.ShortH, "long_h", req.LongH)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, m.Stats())
}

// modelFor resolves the {name} path segment to the stream's model, writing
// the 404 itself when either is missing.
func (s *Server) modelFor(w http.ResponseWriter, r *http.Request) *models.Model {
	name := r.PathValue("name")
	ms, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", name)
		return nil
	}
	m := ms.model.Load()
	if m == nil {
		httpError(w, http.StatusNotFound, "stream %q has no model", name)
		return nil
	}
	return m
}

func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	if m := s.modelFor(w, r); m != nil {
		writeJSON(w, m.Stats())
	}
}

func (s *Server) handleModelEval(w http.ResponseWriter, r *http.Request) {
	if m := s.modelFor(w, r); m != nil {
		writeJSON(w, m.Eval())
	}
}

func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ms, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	if ms.model.Swap(nil) == nil {
		httpError(w, http.StatusNotFound, "stream %q has no model", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// observeModel feeds a just-applied batch to the stream's model, if any.
// Called after the sampler locks are released: scoring scans the model's
// frozen training set under the model's own lock, and a due drift check or
// retrain reads the stream's snapshot cache.
func (s *Server) observeModel(ms *managedStream, batch []stream.Point) {
	if m := ms.model.Load(); m != nil {
		m.ObserveBatch(batch, ms.sm.AcquireSnapshot)
	}
}

// collectModels exports the biasedres_model_* family for every stream with
// an attached model.
func (s *Server) collectModels() []obs.Family {

	label := func(name string) []obs.Label { return []obs.Label{{Key: "stream", Value: name}} }
	trainSize := obs.Family{Name: "biasedres_model_train_size", Type: "gauge",
		Help: "Points in the model's frozen training set."}
	staleness := obs.Family{Name: "biasedres_model_staleness_points", Type: "gauge",
		Help: "Arrivals since the training set was materialized (t - trained_at)."}
	trainAge := obs.Family{Name: "biasedres_model_train_age_points", Type: "gauge",
		Help: "Mean age of the training points relative to the stream head."}
	accuracy := obs.Family{Name: "biasedres_model_accuracy", Type: "gauge",
		Help: "Cumulative prequential accuracy of the model."}
	winAcc := obs.Family{Name: "biasedres_model_window_accuracy", Type: "gauge",
		Help: "Prequential accuracy over the last completed rolling window."}
	scored := obs.Family{Name: "biasedres_model_scored_points_total", Type: "counter",
		Help: "Ingested points scored against the model (prequential test-then-train)."}
	checks := obs.Family{Name: "biasedres_model_drift_checks_total", Type: "counter",
		Help: "Drift checks evaluated over the stream's snapshot."}
	retrains := obs.Family{Name: "biasedres_model_retrains_total", Type: "counter",
		Help: "Training-set rebuilds, from any trigger (drift, staleness cap, manual)."}
	driftRetrains := obs.Family{Name: "biasedres_model_drift_retrains_total", Type: "counter",
		Help: "Retrains triggered by the drift detector firing."}
	lastZ := obs.Family{Name: "biasedres_model_last_drift_z", Type: "gauge",
		Help: "Max per-dimension z-score of the most recent drift check."}

	for _, ns := range s.streamList() {
		name, ms := ns.name, ns.ms
		m := ms.model.Load()
		if m == nil {
			continue
		}
		st := m.Stats()
		l := label(name)
		trainSize.Samples = append(trainSize.Samples, obs.Sample{Labels: l, Value: float64(st.TrainSize)})
		staleness.Samples = append(staleness.Samples, obs.Sample{Labels: l, Value: float64(st.Staleness)})
		trainAge.Samples = append(trainAge.Samples, obs.Sample{Labels: l, Value: st.TrainAge})
		if st.Accuracy >= 0 {
			accuracy.Samples = append(accuracy.Samples, obs.Sample{Labels: l, Value: st.Accuracy})
		}
		if st.WindowOK {
			winAcc.Samples = append(winAcc.Samples, obs.Sample{Labels: l, Value: st.WindowAcc})
		}
		scored.Samples = append(scored.Samples, obs.Sample{Labels: l, Value: float64(st.Scored)})
		checks.Samples = append(checks.Samples, obs.Sample{Labels: l, Value: float64(st.Checks)})
		retrains.Samples = append(retrains.Samples, obs.Sample{Labels: l, Value: float64(st.Retrains)})
		driftRetrains.Samples = append(driftRetrains.Samples, obs.Sample{Labels: l, Value: float64(st.DriftFired)})
		lastZ.Samples = append(lastZ.Samples, obs.Sample{Labels: l, Value: st.LastZ})
	}

	var out []obs.Family
	for _, fam := range []obs.Family{trainSize, staleness, trainAge, accuracy, winAcc, scored, checks, retrains, driftRetrains, lastZ} {
		if len(fam.Samples) > 0 {
			out = append(out, fam)
		}
	}
	return out
}
