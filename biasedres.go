// Package biasedres is a Go implementation of biased reservoir sampling for
// evolving data streams, reproducing Charu C. Aggarwal's "On Biased
// Reservoir Sampling in the presence of Stream Evolution" (VLDB 2006).
//
// A classical (Vitter) reservoir keeps a uniform sample of the whole
// stream, so as the stream ages, an ever-shrinking fraction of the sample
// is relevant to queries about recent behaviour. This package maintains
// samples whose inclusion probabilities decay exponentially with age —
// p(r,t) ∝ e^{-λ(t-r)} — in one pass, with O(1) work per arrival and a
// reservoir no larger than ≈1/λ regardless of stream length:
//
//   - NewBiased — Algorithm 2.1: space covers the maximum requirement
//     ⌊1/λ⌋, insertion is deterministic.
//   - NewConstrained — Algorithm 3.1: a smaller budget n, insertion
//     probability p_in = n·λ.
//   - NewVariable — variable reservoir sampling (Theorem 3.3): the
//     space-constrained sampler with fast start-up; the reservoir is full
//     within about n points and stays full.
//   - NewUnbiased / NewWindow — the unbiased and sliding-window baselines.
//
// On top of the samplers it provides Horvitz-Thompson query estimation
// (count, sum, class-distribution and range-selectivity queries over recent
// horizons), a k-NN stream classifier, reservoir evolution analysis, and a
// manager for sampling thousands of concurrent streams under one memory
// budget.
//
// Everything is deterministic given a seed and uses only the standard
// library. See README.md for a tour and EXPERIMENTS.md for the
// reproduction of the paper's evaluation figures.
package biasedres

import (
	"io"

	"biasedres/internal/classify"
	"biasedres/internal/core"
	"biasedres/internal/evolution"
	"biasedres/internal/multi"
	"biasedres/internal/query"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Point is one stream element: an arrival index, a numeric vector, an
// optional class label and weight.
type Point = stream.Point

// Stream is a one-pass sequence of points.
type Stream = stream.Stream

// Sampler is the contract shared by every reservoir policy.
type Sampler = core.Sampler

// BatchSampler is a Sampler with a batch ingest fast path (AddBatch);
// BiasedReservoir, VariableReservoir and the Synchronized wrapper all
// implement it.
type BatchSampler = core.BatchSampler

// BiasFunction is the paper's f(r,t) (Definition 2.1).
type BiasFunction = core.BiasFunction

// Exponential is the memory-less bias family f(r,t)=e^{-λ(t-r)}.
type Exponential = core.Exponential

// BiasedReservoir is the one-pass exponentially biased sampler
// (Algorithms 2.1 and 3.1).
type BiasedReservoir = core.BiasedReservoir

// VariableReservoir is the fast-start space-constrained sampler
// (Theorem 3.3).
type VariableReservoir = core.VariableReservoir

// UnbiasedReservoir is Vitter's Algorithm R baseline.
type UnbiasedReservoir = core.UnbiasedReservoir

// WindowReservoir is the sliding-window baseline (chain sampling).
type WindowReservoir = core.WindowReservoir

// Rect is an axis-aligned range predicate for selectivity queries.
type Rect = query.Rect

// Linear is a linearly separable query G(t) = Σ c_i·h(X_i).
type Linear = query.Linear

// Truth computes exact recent-horizon query answers for evaluation.
type Truth = query.Truth

// KNN is a nearest-neighbour classifier over a reservoir.
type KNN = classify.KNN

// Prequential is the test-then-train stream classification evaluator.
type Prequential = classify.Prequential

// Confusion is a streaming confusion matrix with per-class precision,
// recall and macro-F1 — the metric to use on skewed streams.
type Confusion = classify.Confusion

// NewConfusion returns an empty confusion matrix.
func NewConfusion() *Confusion { return classify.NewConfusion() }

// Manager samples many independent streams under one memory budget.
type Manager = multi.Manager

// Snapshot is a 2-D projection of reservoir contents for evolution
// analysis.
type Snapshot = evolution.Snapshot

// NewBiased returns an Algorithm 2.1 sampler for bias rate λ ∈ (0,1]: a
// reservoir of capacity ⌊1/λ⌋ in which the r-th stream point survives to
// time t with probability ≈ e^{-λ(t-r)}.
func NewBiased(lambda float64, seed uint64) (*BiasedReservoir, error) {
	return core.NewBiasedReservoir(lambda, xrand.New(seed))
}

// NewConstrained returns an Algorithm 3.1 sampler: bias rate λ realized in
// a reservoir of only `capacity` ≤ 1/λ points via insertion probability
// p_in = capacity·λ.
func NewConstrained(lambda float64, capacity int, seed uint64) (*BiasedReservoir, error) {
	return core.NewConstrainedReservoir(lambda, capacity, xrand.New(seed))
}

// NewVariable returns a variable reservoir sampler (Theorem 3.3): same
// stationary sample distribution as NewConstrained, but the reservoir
// fills within about `capacity` points and stays essentially full.
// Prefer this constructor for space-constrained applications.
func NewVariable(lambda float64, capacity int, seed uint64) (*VariableReservoir, error) {
	return core.NewVariableReservoir(lambda, capacity, xrand.New(seed))
}

// NewVariableWithFactor is NewVariable with an explicit p_in reduction
// factor in (0,1) instead of the paper's default 1 - 1/capacity. Theorem
// 3.3 makes any factor correct; smaller factors run fewer reduction phases
// but let the reservoir dip further below capacity between phases.
func NewVariableWithFactor(lambda float64, capacity int, seed uint64, factor float64) (*VariableReservoir, error) {
	return core.NewVariableReservoir(lambda, capacity, xrand.New(seed), core.WithReductionFactor(factor))
}

// NewUnbiased returns the classical unbiased reservoir baseline (Vitter's
// Algorithm R).
func NewUnbiased(capacity int, seed uint64) (*UnbiasedReservoir, error) {
	return core.NewUnbiasedReservoir(capacity, xrand.New(seed))
}

// NewWindow returns a uniform sample of the last `window` arrivals via
// chain sampling — the pure sliding-window alternative the paper contrasts
// with biased sampling.
func NewWindow(window uint64, capacity int, seed uint64) (*WindowReservoir, error) {
	return core.NewWindowReservoir(window, capacity, xrand.New(seed))
}

// Synchronized wraps a sampler with a mutex for concurrent producers and
// readers. The wrapper also maintains a versioned snapshot cache, so
// queries routed through TakeSnapshot (or the *On kernels) acquire the
// mutex only when the reservoir changed since the last read.
func Synchronized(s Sampler) *core.Synchronized { return core.NewSynchronized(s) }

// SamplerSnapshot is an immutable point-in-time view of a reservoir: the
// sampled points, the stream position t, and the precomputed inclusion
// probability of every point. Snapshots are safe to share across
// goroutines and to query repeatedly without touching the sampler again.
// (Snapshot, without the prefix, is the 2-D evolution projection below.)
type SamplerSnapshot = core.Snapshot

// SnapshotCacheStats reports snapshot cache effectiveness: cache hits are
// lock-free reads, misses had to wait for (or perform) a rebuild.
type SnapshotCacheStats = core.SnapshotCacheStats

// TakeSnapshot captures s's current reservoir as an immutable snapshot.
// Samplers with a snapshot cache (Synchronized, the server, the
// multi-stream manager) serve repeated calls lock-free until the next
// mutation; bare samplers are walked once per call. The caller must not
// rely on the snapshot reflecting mutations made after the call.
func TakeSnapshot(s Sampler) *SamplerSnapshot { return core.SnapshotOf(s) }

// AddBatch feeds pts to s as consecutive arrivals, using the sampler's
// batch fast path when it has one (see BatchSampler) and falling back to
// point-at-a-time Add otherwise. Batching amortizes random-number draws —
// the space-constrained samplers admit points by geometric skips instead of
// one coin per arrival — and, through Synchronized, lock acquisitions.
func AddBatch(s Sampler, pts []Point) { core.AddBatch(s, pts) }

// NewManager returns a multi-stream sampling manager distributing `budget`
// reservoir slots across registered streams, each biased with rate λ.
func NewManager(budget int, lambda float64, seed uint64) (*Manager, error) {
	return multi.NewManager(budget, lambda, seed)
}

// LoadManager reconstructs a manager fleet from a Manager.SaveTo
// checkpoint; every stream resumes sampling identically.
func LoadManager(r io.Reader, seed uint64) (*Manager, error) {
	return multi.LoadFrom(r, seed)
}

// MaxReservoirRequirement evaluates Theorem 2.1: the largest sample size
// any policy can maintain for bias function f at stream length t.
func MaxReservoirRequirement(f BiasFunction, t uint64) float64 {
	return core.MaxReservoirRequirement(f, t)
}

// ExpMaxRequirement is Lemma 2.1's closed form of the requirement for the
// exponential bias function.
func ExpMaxRequirement(lambda float64, t uint64) float64 {
	return core.ExpMaxRequirement(lambda, t)
}

// Estimate evaluates a linear query on a sampler via the Horvitz-Thompson
// estimator of Equation 8 (unbiased for any sampling policy, Observation
// 4.1).
func Estimate(s Sampler, q Linear) float64 { return EstimateOn(TakeSnapshot(s), q) }

// EstimateWithVariance additionally returns the HT estimate of the
// estimator's own variance (Lemma 4.1).
func EstimateWithVariance(s Sampler, q Linear) (estimate, variance float64) {
	return EstimateWithVarianceOn(TakeSnapshot(s), q)
}

// CountQuery returns the count query over the last h arrivals (h = 0 for
// the whole stream).
func CountQuery(h uint64) Linear { return query.Count(h) }

// SumQuery returns the sum query over one dimension of the last h arrivals.
func SumQuery(h uint64, dim int) Linear { return query.Sum(h, dim) }

// ClassCountQuery counts points with the given label among the last h
// arrivals.
func ClassCountQuery(h uint64, label int) Linear { return query.ClassCount(h, label) }

// RangeCountQuery counts points inside rect among the last h arrivals.
func RangeCountQuery(h uint64, rect Rect) Linear { return query.RangeCount(h, rect) }

// NewRect builds a validated axis-aligned range predicate.
func NewRect(dims []int, lo, hi []float64) (Rect, error) { return query.NewRect(dims, lo, hi) }

// HorizonAverage estimates the per-dimension average of the last h
// arrivals.
func HorizonAverage(s Sampler, h uint64, dim int) ([]float64, error) {
	return HorizonAverageOn(TakeSnapshot(s), h, dim)
}

// ClassDistribution estimates the fractional class distribution of the
// last h arrivals.
func ClassDistribution(s Sampler, h uint64) (map[int]float64, error) {
	return ClassDistributionOn(TakeSnapshot(s), h)
}

// RangeSelectivity estimates the fraction of the last h arrivals inside
// rect.
func RangeSelectivity(s Sampler, h uint64, rect Rect) (float64, error) {
	return RangeSelectivityOn(TakeSnapshot(s), h, rect)
}

// GroupAverage estimates the per-dimension average of each label's points
// among the last h arrivals.
func GroupAverage(s Sampler, h uint64, dim int) (map[int][]float64, error) {
	return GroupAverageOn(TakeSnapshot(s), h, dim)
}

// GroupCount estimates the number of points of each label among the last h
// arrivals.
func GroupCount(s Sampler, h uint64) (map[int]float64, error) {
	return GroupCountOn(TakeSnapshot(s), h)
}

// LabelCount is one entry of a TopK report.
type LabelCount = query.LabelCount

// TopK estimates the k most frequent labels among the last h arrivals,
// each with a standard error.
func TopK(s Sampler, h uint64, k int) ([]LabelCount, error) {
	return TopKOn(TakeSnapshot(s), h, k)
}

// EstimateOn evaluates a linear query against a snapshot. Combined with
// TakeSnapshot it answers many queries from one reservoir walk.
func EstimateOn(snap *SamplerSnapshot, q Linear) float64 { return query.EstimateOn(snap, q) }

// EstimateWithVarianceOn is EstimateWithVariance against a snapshot.
func EstimateWithVarianceOn(snap *SamplerSnapshot, q Linear) (estimate, variance float64) {
	return query.EstimateWithVarianceOn(snap, q)
}

// HorizonAverageOn is HorizonAverage against a snapshot.
func HorizonAverageOn(snap *SamplerSnapshot, h uint64, dim int) ([]float64, error) {
	return query.Accumulate(snap, h, dim, nil).Average()
}

// ClassDistributionOn is ClassDistribution against a snapshot.
func ClassDistributionOn(snap *SamplerSnapshot, h uint64) (map[int]float64, error) {
	return query.Accumulate(snap, h, 0, nil).Distribution()
}

// RangeSelectivityOn is RangeSelectivity against a snapshot.
func RangeSelectivityOn(snap *SamplerSnapshot, h uint64, rect Rect) (float64, error) {
	return query.Accumulate(snap, h, 0, &rect).Selectivity()
}

// GroupAverageOn is GroupAverage against a snapshot.
func GroupAverageOn(snap *SamplerSnapshot, h uint64, dim int) (map[int][]float64, error) {
	return query.Accumulate(snap, h, dim, nil).GroupAverage()
}

// GroupCountOn is GroupCount against a snapshot.
func GroupCountOn(snap *SamplerSnapshot, h uint64) (map[int]float64, error) {
	return query.Accumulate(snap, h, 0, nil).GroupCount()
}

// TopKOn is TopK against a snapshot.
func TopKOn(snap *SamplerSnapshot, h uint64, k int) ([]LabelCount, error) {
	return query.Accumulate(snap, h, 0, nil).TopK(k)
}

// QuantileOn estimates the q-quantile of dimension dim over the last h
// arrivals from a snapshot.
func QuantileOn(snap *SamplerSnapshot, h uint64, dim int, q float64) (float64, error) {
	return query.QuantileOn(snap, h, dim, q)
}

// NewTruth returns an exact recent-horizon query evaluator (for horizons up
// to maxHorizon) used to measure estimation error.
func NewTruth(maxHorizon int) (*Truth, error) { return query.NewTruth(maxHorizon) }

// NewKNN returns a k-nearest-neighbour classifier whose training set is the
// sampler's current reservoir.
func NewKNN(k int, s Sampler) (*KNN, error) { return classify.NewKNN(k, s) }

// NewPrequential returns a test-then-train evaluator: classify each arrival
// against the reservoir, score it, then offer it to the sampler.
func NewPrequential(k int, s Sampler, warmup, window uint64) (*Prequential, error) {
	return classify.NewPrequential(k, s, warmup, window)
}

// ProjectReservoir projects reservoir points onto two dimensions for
// evolution analysis (scatter plots).
func ProjectReservoir(pts []Point, t uint64, dimX, dimY int) (Snapshot, error) {
	return evolution.Project(pts, t, dimX, dimY)
}

// MixingIndex quantifies class mixing in a reservoir: the fraction of
// points whose nearest reservoir neighbour has a different label.
func MixingIndex(pts []Point) (float64, error) { return evolution.MixingIndex(pts) }

// RenderScatter draws a snapshot as an ASCII scatter plot.
func RenderScatter(s Snapshot, width, height int) (string, error) {
	return evolution.RenderASCII(s, width, height)
}
