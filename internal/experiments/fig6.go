package experiments

import (
	"fmt"

	"biasedres/internal/core"
	"biasedres/internal/query"
	"biasedres/internal/stats"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Fig6 reproduces Figure 6: sum-query error with stream progression at a
// *fixed* horizon h = 10⁴ on the synthetic stream — the same query asked
// again and again as the stream grows. The paper's claim: the unbiased
// scheme's error deteriorates with progression because a shrinking fraction
// of its reservoir is relevant, while the memory-less biased scheme stays
// flat.
func Fig6(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	const dim = 10
	n, lambda := queryParams(cfg)
	horizon := cfg.scaled(10000, 100)
	total := cfg.scaled(400000, 8*horizon)
	checkpoints := 8
	every := total / checkpoints
	trials := cfg.trials(3)

	errB := make([]float64, checkpoints)
	errU := make([]float64, checkpoints)
	xs := make([]float64, checkpoints)
	rng := xrand.New(cfg.Seed + 23)
	for trial := 0; trial < trials; trial++ {
		ccfg := stream.DefaultClusterConfig()
		ccfg.Total = uint64(total)
		ccfg.Seed = cfg.Seed + uint64(trial)*311
		gen, err := stream.NewClusterGenerator(ccfg)
		if err != nil {
			return nil, err
		}
		truth, err := query.NewTruth(horizon)
		if err != nil {
			return nil, err
		}
		biased, err := core.NewConstrainedReservoir(lambda, n, rng.Split())
		if err != nil {
			return nil, err
		}
		unbiased, err := core.NewUnbiasedReservoir(n, rng.Split())
		if err != nil {
			return nil, err
		}
		check := 0
		for i := 1; i <= total; i++ {
			p, ok := gen.Next()
			if !ok {
				break
			}
			truth.Observe(p)
			biased.Add(p)
			unbiased.Add(p)
			if i%every == 0 && check < checkpoints {
				exact, err := truth.Average(uint64(horizon), dim)
				if err != nil {
					return nil, err
				}
				eb, err := sampleAvgError(biased, uint64(horizon), dim, exact)
				if err != nil {
					return nil, err
				}
				eu, err := sampleAvgError(unbiased, uint64(horizon), dim, exact)
				if err != nil {
					return nil, err
				}
				errB[check] += eb
				errU[check] += eu
				xs[check] = float64(i)
				check++
			}
		}
	}
	res := &Result{
		ID:     "fig6",
		Title:  fmt.Sprintf("Sum query error with stream progression, fixed horizon h=%d (synthetic)", horizon),
		XLabel: "progression of stream (points)",
		YLabel: "absolute error",
	}
	for i := 0; i < checkpoints; i++ {
		res.AddPoint("biased", xs[i], errB[i]/float64(trials))
		res.AddPoint("unbiased", xs[i], errU[i]/float64(trials))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"parameters: reservoir=%d λ=%.3g horizon=%d trials=%d", n, lambda, horizon, trials))
	return res, nil
}

// sampleAvgError evaluates the horizon-average estimate of one sampler
// against the exact answer, treating "no relevant sample" as a zero
// estimate (the null result).
func sampleAvgError(s core.Sampler, h uint64, dim int, exact []float64) (float64, error) {
	est, err := query.Accumulate(core.SnapshotOf(s), h, dim, nil).Average()
	if err != nil {
		est = make([]float64, dim)
	}
	return stats.MeanAbsError(est, exact)
}
