package experiments

import (
	"fmt"
	"math"

	"biasedres/internal/core"
	"biasedres/internal/query"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// ExtTime evaluates the wall-clock time-decay extension: when arrivals are
// irregular (bursts and lulls) and the analyst's horizon is expressed in
// *time* ("the last Δ seconds"), an arrival-indexed biased reservoir must
// translate the horizon through the average rate and is systematically
// wrong inside bursts and lulls, while the TimeDecayReservoir answers the
// time horizon directly.
//
// Workload: points arrive in alternating fast (rate 10/s) and slow
// (rate 0.5/s) phases; each point's value is its phase mean plus noise, so
// the recent-time average swings between phases. At checkpoints we ask for
// the mean over the last Δ = 60 s and compare three estimates against the
// exact answer: the time-decay reservoir, the arrival-indexed variable
// reservoir with the horizon converted via the average rate, and the same
// reservoir with the horizon converted via the *current* phase rate (the
// best an index-based scheme could plausibly do online).
func ExtTime(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	const (
		fastRate   = 20.0
		slowRate   = 0.2
		phaseLen   = 300.0 // seconds per phase
		horizonSec = 60.0
	)
	capacity := cfg.scaled(500, 50)
	// λ per second, tuned to the time horizon.
	lambdaSec := 1.0 / horizonSec
	phases := cfg.scaled(20, 6)
	trials := cfg.trials(3)

	avgRate := (fastRate + slowRate) / 2
	// Arrival-indexed reservoir tuned to the equivalent mean arrival
	// count for the time horizon.
	hIndexAvg := uint64(horizonSec * avgRate)
	lambdaIdx := 1.0 / float64(hIndexAvg)
	if lambdaIdx*float64(capacity) > 1 {
		lambdaIdx = 1.0 / float64(capacity)
	}
	lambdaTD := lambdaSec
	if lambdaTD*float64(capacity) > 1 { // time-decay capacity feasibility is rate-dependent; keep sane
		lambdaTD = 1.0 / float64(capacity)
	}

	res := &Result{
		ID: "exttime",
		Title: fmt.Sprintf(
			"Time-horizon queries under bursty arrivals: time-decay vs arrival-indexed reservoirs (Δ=%.0fs)", horizonSec),
		XLabel: "checkpoint (phase index)",
		YLabel: "absolute error of last-Δ mean",
	}

	rng := xrand.New(cfg.Seed + 79)
	nCheck := phases
	errTD := make([]float64, nCheck)
	errAvg := make([]float64, nCheck)
	errCur := make([]float64, nCheck)
	for trial := 0; trial < trials; trial++ {
		gen := rng.Split()
		td, err := core.NewTimeDecayReservoir(lambdaTD, capacity, rng.Split())
		if err != nil {
			return nil, err
		}
		idx, err := core.NewVariableReservoir(lambdaIdx, capacity, rng.Split())
		if err != nil {
			return nil, err
		}
		// Full history for exact time-window truth (test scale).
		type rec struct {
			ts, v float64
		}
		var hist []rec

		now := 0.0
		var index uint64
		for phase := 0; phase < phases; phase++ {
			rate, mean := fastRate, 1.0
			if phase%2 == 1 {
				rate, mean = slowRate, -1.0
			}
			end := now + phaseLen
			for now < end {
				now += gen.ExpFloat64() / rate
				if now >= end {
					break
				}
				index++
				v := mean + gen.NormFloat64()*0.5
				p := stream.Point{Index: index, Values: []float64{v}, Weight: 1}
				if err := td.AddAt(p, now); err != nil {
					return nil, err
				}
				idx.Add(p)
				hist = append(hist, rec{ts: now, v: v})
			}
			// Checkpoint at the end of each phase.
			var exactSum float64
			var exactN int
			for i := len(hist) - 1; i >= 0 && hist[i].ts > now-horizonSec; i-- {
				exactSum += hist[i].v
				exactN++
			}
			if exactN == 0 {
				continue
			}
			exact := exactSum / float64(exactN)

			if est, ok := timeDecayMean(td, now, horizonSec); ok {
				errTD[phase] += math.Abs(est - exact)
			} else {
				errTD[phase] += math.Abs(exact)
			}
			errAvg[phase] += idxMeanErr(idx, hIndexAvg, exact)
			hCur := uint64(horizonSec * rate)
			if hCur == 0 {
				hCur = 1
			}
			errCur[phase] += idxMeanErr(idx, hCur, exact)
		}
	}
	for i := 0; i < nCheck; i++ {
		res.AddPoint("time-decay", float64(i+1), errTD[i]/float64(trials))
		res.AddPoint("index-avgrate", float64(i+1), errAvg[i]/float64(trials))
		res.AddPoint("index-currate", float64(i+1), errCur[i]/float64(trials))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"parameters: capacity=%d λ_time=%.3g/s λ_index=%.3g rates=%g/%g per s phase=%.0fs trials=%d",
		capacity, lambdaTD, lambdaIdx, fastRate, slowRate, phaseLen, trials))
	res.Notes = append(res.Notes,
		"index-avgrate converts Δ to arrivals via the long-run average rate; index-currate via the current phase rate")
	return res, nil
}

// timeDecayMean estimates the mean value over the last Δ time units from a
// time-decay reservoir via Horvitz-Thompson weighting of its residents.
func timeDecayMean(td *core.TimeDecayReservoir, now, delta float64) (float64, bool) {
	var num, den float64
	for _, r := range td.Residents() {
		if now-r.TS >= delta {
			continue
		}
		p := td.InclusionProb(r.P.Index)
		if p <= 0 {
			continue
		}
		w := 1 / p
		num += w * r.P.Values[0]
		den += w
	}
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}

// idxMeanErr evaluates an arrival-horizon mean estimate against the exact
// time-window answer, treating "no mass" as a zero estimate.
func idxMeanErr(s core.Sampler, h uint64, exact float64) float64 {
	est, err := query.Accumulate(core.SnapshotOf(s), h, 1, nil).Average()
	if err != nil {
		return math.Abs(exact)
	}
	return math.Abs(est[0] - exact)
}
