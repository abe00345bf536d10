package experiments

import (
	"fmt"
	"math"

	"biasedres/internal/core"
	"biasedres/internal/query"
	"biasedres/internal/stats"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// The query-accuracy experiments (Figures 2-5) share one protocol: run a
// stream to its end past a biased reservoir, an unbiased reservoir of the
// same size and an exact ground-truth horizon buffer, then evaluate a
// query at a sweep of user-defined horizons and report each scheme's error.
//
// Paper parameters: reservoir of 1000 points, λ = 10⁻⁴, so the biased
// scheme runs Algorithm 3.1 with p_in = n·λ = 0.1.

// horizonEval computes one scheme's error at one horizon. A scheme that
// cannot answer (no relevant sample points) must fold that failure into its
// error — the paper's "null or wildly inaccurate result".
type horizonEval func(s core.Sampler, truth *query.Truth, h uint64) (float64, error)

// sweepSpec parameterizes one horizon-sweep experiment.
type sweepSpec struct {
	id, title string
	yLabel    string
	mkStream  func(seed uint64) (stream.Stream, error)
	horizons  []int
	eval      horizonEval
	trials    int
	reservoir int
	lambda    float64
}

// runHorizonSweep executes the shared protocol and averages errors across
// trials.
func runHorizonSweep(cfg Config, spec sweepSpec) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxH := 0
	for _, h := range spec.horizons {
		if h > maxH {
			maxH = h
		}
	}
	if maxH == 0 {
		return nil, fmt.Errorf("experiments: %s has no horizons", spec.id)
	}
	trials := cfg.trials(spec.trials)
	rng := xrand.New(cfg.Seed + 17)

	errB := make([]float64, len(spec.horizons))
	errU := make([]float64, len(spec.horizons))
	for trial := 0; trial < trials; trial++ {
		src, err := spec.mkStream(cfg.Seed + uint64(trial)*101)
		if err != nil {
			return nil, err
		}
		truth, err := query.NewTruth(maxH)
		if err != nil {
			return nil, err
		}
		biased, err := core.NewConstrainedReservoir(spec.lambda, spec.reservoir, rng.Split())
		if err != nil {
			return nil, err
		}
		unbiased, err := core.NewUnbiasedReservoir(spec.reservoir, rng.Split())
		if err != nil {
			return nil, err
		}
		for {
			p, ok := src.Next()
			if !ok {
				break
			}
			truth.Observe(p)
			biased.Add(p)
			unbiased.Add(p)
		}
		for i, h := range spec.horizons {
			eb, err := spec.eval(biased, truth, uint64(h))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s biased h=%d: %w", spec.id, h, err)
			}
			eu, err := spec.eval(unbiased, truth, uint64(h))
			if err != nil {
				return nil, fmt.Errorf("experiments: %s unbiased h=%d: %w", spec.id, h, err)
			}
			errB[i] += eb
			errU[i] += eu
		}
	}
	res := &Result{
		ID:     spec.id,
		Title:  spec.title,
		XLabel: "user horizon",
		YLabel: spec.yLabel,
	}
	for i, h := range spec.horizons {
		res.AddPoint("biased", float64(h), errB[i]/float64(trials))
		res.AddPoint("unbiased", float64(h), errU[i]/float64(trials))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"parameters: reservoir=%d λ=%.3g p_in=%.3g trials=%d",
		spec.reservoir, spec.lambda, float64(spec.reservoir)*spec.lambda, trials))
	return res, nil
}

// queryParams derives the paper's reservoir size and bias rate at the
// configured scale, preserving p_in = 0.1.
func queryParams(cfg Config) (reservoir int, lambda float64) {
	reservoir = cfg.scaled(1000, 50)
	lambda = 0.1 / float64(reservoir)
	return reservoir, lambda
}

// horizonGrid returns the paper's horizon sweep 2000, 4000, ..., 20000,
// scaled.
func horizonGrid(cfg Config) []int {
	out := make([]int, 0, 10)
	for i := 1; i <= 10; i++ {
		out = append(out, cfg.scaled(2000*i, 20*i))
	}
	return out
}

// averageEval is the sum-query error of Figures 2/3: the mean absolute
// error, across dimensions, of the estimated per-dimension average of the
// last h arrivals. A scheme with no relevant sample answers zero — the
// paper's null result.
func averageEval(dim int) horizonEval {
	return func(s core.Sampler, truth *query.Truth, h uint64) (float64, error) {
		exact, err := truth.Average(h, dim)
		if err != nil {
			return 0, err
		}
		est, estErr := query.Accumulate(core.SnapshotOf(s), h, dim, nil).Average()
		if estErr != nil {
			est = make([]float64, dim) // null result
		}
		return stats.MeanAbsError(est, exact)
	}
}

// classDistEval is Figure 4's error: Equation 21 over the class
// distribution of the last h arrivals.
func classDistEval() horizonEval {
	return func(s core.Sampler, truth *query.Truth, h uint64) (float64, error) {
		exact, err := truth.ClassDistribution(h)
		if err != nil {
			return 0, err
		}
		est, estErr := query.Accumulate(core.SnapshotOf(s), h, 0, nil).Distribution()
		if estErr != nil {
			est = map[int]float64{} // null result
		}
		return stats.ClassDistributionError(exact, est)
	}
}

// selectivityEval is Figure 5's error: absolute error of the estimated
// range selectivity.
func selectivityEval(rect query.Rect) horizonEval {
	return func(s core.Sampler, truth *query.Truth, h uint64) (float64, error) {
		exact, err := truth.RangeSelectivity(h, rect)
		if err != nil {
			return 0, err
		}
		est, estErr := query.Accumulate(core.SnapshotOf(s), h, 0, &rect).Selectivity()
		if estErr != nil {
			est = 0 // null result
		}
		return math.Abs(est - exact), nil
	}
}
