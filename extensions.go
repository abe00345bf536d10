package biasedres

import (
	"biasedres/internal/cluster"
	"biasedres/internal/core"
	"biasedres/internal/xrand"
)

// Extensions beyond the paper's core algorithms: the skip-based unbiased
// reservoir (Vitter's Algorithm Z), wall-clock time decay, weighted
// sampling, quantile estimation and k-means over samples.

// ZReservoir is Vitter's Algorithm Z: distributionally identical to
// NewUnbiased, but it draws how many arrivals to skip by O(1) rejection
// sampling instead of flipping one coin per arrival — the fastest unbiased
// reservoir on long streams.
type ZReservoir = core.ZReservoir

// TimeDecayReservoir biases by wall-clock age instead of arrival count:
// p ∝ e^{-λ(T_now - T_r)} with per-point timestamps.
type TimeDecayReservoir = core.TimeDecayReservoir

// WeightedReservoir is Efraimidis-Spirakis A-Res: inclusion proportional to
// each point's own Weight. It does not support Horvitz-Thompson estimation
// (no closed-form inclusion probability).
type WeightedReservoir = core.WeightedReservoir

// TTBSReservoir is Targeted-size Time-Biased Sampling (Hentschel, Haas,
// Tian): inclusion probabilities decay at exactly e^{-λk}, with the sample
// size fluctuating around the target instead of bounded by it.
type TTBSReservoir = core.TTBSReservoir

// RTBSReservoir is Reservoir-based Time-Biased Sampling: exact exponential
// decay within a hard capacity bound, with the maximal expected sample size
// achievable under both constraints.
type RTBSReservoir = core.RTBSReservoir

// KMeansConfig controls a k-means run over a sample.
type KMeansConfig = cluster.Config

// KMeansResult is the outcome of a k-means run.
type KMeansResult = cluster.Result

// NewZUnbiased returns an Algorithm Z unbiased reservoir: same
// distribution as NewUnbiased, O(1) random draws per replacement.
func NewZUnbiased(capacity int, seed uint64) (*ZReservoir, error) {
	return core.NewZReservoir(capacity, xrand.New(seed))
}

// NewTimeDecay returns a reservoir whose bias decays with wall-clock time
// at rate λ per time unit, bounded by `capacity` points. Feed it with
// AddAt(point, timestamp); plain Add treats arrivals as unit-spaced.
func NewTimeDecay(lambda float64, capacity int, seed uint64) (*TimeDecayReservoir, error) {
	return core.NewTimeDecayReservoir(lambda, capacity, xrand.New(seed))
}

// NewWeighted returns an A-Res weighted reservoir of the given capacity.
func NewWeighted(capacity int, seed uint64) (*WeightedReservoir, error) {
	return core.NewWeightedReservoir(capacity, xrand.New(seed))
}

// NewTTBS returns a T-TBS sampler: exact exponential decay at rate λ per
// arrival with target sample size n (required: n ≤ 1/(1-e^{-λ}) ≈ 1/λ).
// The size fluctuates around n; inclusion probabilities are exact, so
// Estimate and friends divide by the true presence probability.
func NewTTBS(lambda float64, target int, seed uint64) (*TTBSReservoir, error) {
	return core.NewTTBSReservoir(lambda, target, xrand.New(seed))
}

// NewRTBS returns an R-TBS sampler: exact exponential decay at rate λ per
// arrival within a hard bound of `capacity` points, holding the maximal
// expected sample size min(capacity, W(t)) via the fractional-item trick.
func NewRTBS(lambda float64, capacity int, seed uint64) (*RTBSReservoir, error) {
	return core.NewRTBSReservoir(lambda, capacity, xrand.New(seed))
}

// MergeUnbiased combines unbiased reservoirs maintained over disjoint
// stream shards into one uniform sample of the union (distributed
// aggregation). n must not exceed any source's current reservoir size.
func MergeUnbiased(n int, seed uint64, sources ...*UnbiasedReservoir) (*UnbiasedReservoir, error) {
	return core.MergeUnbiased(n, xrand.New(seed), sources...)
}

// Quantile estimates the q-quantile of one dimension over the last h
// arrivals from a reservoir, weighting sampled points by 1/p(r,t).
func Quantile(s Sampler, h uint64, dim int, q float64) (float64, error) {
	return QuantileOn(TakeSnapshot(s), h, dim, q)
}

// Median estimates the median of one dimension over the last h arrivals.
func Median(s Sampler, h uint64, dim int) (float64, error) {
	return QuantileOn(TakeSnapshot(s), h, dim, 0.5)
}

// KMeans clusters a sample (e.g. a reservoir's Points) with Lloyd's
// algorithm and k-means++ seeding — the paper's "black-box multi-pass
// mining algorithm over the sample" scenario.
func KMeans(pts []Point, cfg KMeansConfig, seed uint64) (*KMeansResult, error) {
	return cluster.KMeans(pts, cfg, xrand.New(seed))
}

// ClusterPurity scores a clustering against the points' true labels.
func ClusterPurity(pts []Point, assign []int, k int) (float64, error) {
	return cluster.Purity(pts, assign, k)
}
