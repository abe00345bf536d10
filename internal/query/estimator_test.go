package query

import (
	"math"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

func feedBoth(s core.Sampler, tr *Truth, pts []stream.Point) {
	for _, p := range pts {
		s.Add(p)
		tr.Observe(p)
	}
}

func onesStream(n int) []stream.Point {
	pts := make([]stream.Point, n)
	for i := range pts {
		pts[i] = stream.Point{Index: uint64(i + 1), Values: []float64{1}, Label: i % 3, Weight: 1}
	}
	return pts
}

// Observation 4.1: E[H(t)] = G(t). Average the estimator over many
// independent reservoirs and compare to the exact count.
func TestEstimatorUnbiasedness(t *testing.T) {
	const (
		lambda  = 0.01
		total   = 2000
		horizon = 300
		trials  = 800
	)
	pts := onesStream(total)
	rng := xrand.New(5)
	q := Count(horizon)

	var sumBiased, sumUnbiased float64
	for trial := 0; trial < trials; trial++ {
		b, _ := core.NewBiasedReservoir(lambda, rng.Split())
		u, _ := core.NewUnbiasedReservoir(100, rng.Split())
		for _, p := range pts {
			b.Add(p)
			u.Add(p)
		}
		sumBiased += EstimateOn(core.SnapshotOf(b), q)
		sumUnbiased += EstimateOn(core.SnapshotOf(u), q)
	}
	meanB := sumBiased / trials
	meanU := sumUnbiased / trials
	want := float64(horizon)
	if math.Abs(meanB-want)/want > 0.05 {
		t.Errorf("biased estimator mean %v, want %v (unbiasedness)", meanB, want)
	}
	if math.Abs(meanU-want)/want > 0.10 {
		t.Errorf("unbiased-reservoir estimator mean %v, want %v", meanU, want)
	}
}

// The paper's central experimental claim (Figures 2-5): for small horizons
// on a long stream, the biased reservoir estimates far more accurately than
// the unbiased one of equal size.
func TestBiasedBeatsUnbiasedAtSmallHorizons(t *testing.T) {
	const (
		lambda  = 0.005 // reservoir 200
		total   = 100000
		horizon = 500
		trials  = 40
	)
	rng := xrand.New(9)
	gen, err := stream.NewRegimeGenerator(1, 5000, 2, 1, total, false, 77)
	if err != nil {
		t.Fatal(err)
	}
	pts := stream.Collect(gen, 0)

	truth, _ := NewTruth(horizon)
	for _, p := range pts {
		truth.Observe(p)
	}
	exact, err := truth.Average(horizon, 1)
	if err != nil {
		t.Fatal(err)
	}

	var errB, errU float64
	var failB, failU int
	for trial := 0; trial < trials; trial++ {
		b, _ := core.NewBiasedReservoir(lambda, rng.Split())
		u, _ := core.NewUnbiasedReservoir(200, rng.Split())
		for _, p := range pts {
			b.Add(p)
			u.Add(p)
		}
		if est, err := Accumulate(core.SnapshotOf(b), horizon, 1, nil).Average(); err != nil {
			failB++
		} else {
			errB += math.Abs(est[0] - exact[0])
		}
		if est, err := Accumulate(core.SnapshotOf(u), horizon, 1, nil).Average(); err != nil {
			failU++
		} else {
			errU += math.Abs(est[0] - exact[0])
		}
	}
	if failB > 0 {
		t.Fatalf("biased estimator returned no-mass error %d/%d times", failB, trials)
	}
	okU := trials - failU
	meanB := errB / float64(trials-failB)
	if okU > 0 {
		meanU := errU / float64(okU)
		if meanB >= meanU {
			t.Errorf("biased error %v not below unbiased error %v at horizon %d", meanB, meanU, horizon)
		}
	}
	// On a 100k stream the unbiased reservoir has ~1 relevant point for a
	// 500-horizon query; errors must be substantial or estimates missing.
	t.Logf("biased MAE %v; unbiased MAE over %d/%d answerable trials", meanB, okU, trials)
}

func TestEstimateWithVarianceMatchesLemma41(t *testing.T) {
	const (
		lambda  = 0.02
		total   = 1000
		horizon = 200
		trials  = 600
	)
	pts := onesStream(total)
	rng := xrand.New(21)
	q := Count(horizon)

	// Exact Lemma 4.1 variance for the biased policy.
	var probFn func(r uint64) float64
	{
		b, _ := core.NewBiasedReservoir(lambda, xrand.New(1))
		for _, p := range pts {
			b.Add(p)
		}
		probFn = b.InclusionProb
	}
	wantVar, err := TrueVariance(pts, total, q, probFn)
	if err != nil {
		t.Fatal(err)
	}

	// Empirical variance of the estimator across trials, and the mean of
	// the per-sample variance estimates.
	var sum, sumsq, estVarSum float64
	for trial := 0; trial < trials; trial++ {
		b, _ := core.NewBiasedReservoir(lambda, rng.Split())
		for _, p := range pts {
			b.Add(p)
		}
		est, v := EstimateWithVarianceOn(core.SnapshotOf(b), q)
		sum += est
		sumsq += est * est
		estVarSum += v
	}
	mean := sum / trials
	empVar := sumsq/trials - mean*mean
	estVar := estVarSum / trials

	// All three quantities target Var[H(t)]. The estimator's inclusion
	// indicators are not perfectly independent (fixed-size reservoir), so
	// allow generous agreement bands.
	if empVar < 0.3*wantVar || empVar > 3*wantVar {
		t.Errorf("empirical variance %v vs Lemma 4.1 %v", empVar, wantVar)
	}
	if estVar < 0.3*wantVar || estVar > 3*wantVar {
		t.Errorf("HT variance estimate %v vs Lemma 4.1 %v", estVar, wantVar)
	}
}

func TestTrueVarianceRejectsZeroProb(t *testing.T) {
	pts := onesStream(10)
	_, err := TrueVariance(pts, 10, Count(0), func(uint64) float64 { return 0 })
	if err == nil {
		t.Fatal("zero probability with nonzero coefficient accepted")
	}
}

func TestHorizonAverageValidation(t *testing.T) {
	b, _ := core.NewBiasedReservoir(0.1, xrand.New(1))
	if _, err := Accumulate(core.SnapshotOf(b), 10, 0, nil).Average(); err == nil {
		t.Error("dim 0 accepted")
	}
	// Empty reservoir: no mass.
	if _, err := Accumulate(core.SnapshotOf(b), 10, 1, nil).Average(); err == nil {
		t.Error("empty reservoir gave an answer")
	}
}

func TestClassDistributionEstimate(t *testing.T) {
	const total = 30000
	pts := make([]stream.Point, total)
	for i := range pts {
		label := 0
		if i%10 == 0 {
			label = 1
		}
		pts[i] = stream.Point{Index: uint64(i + 1), Values: []float64{0}, Label: label, Weight: 1}
	}
	rng := xrand.New(31)
	const trials = 25
	var f0, f1 float64
	for trial := 0; trial < trials; trial++ {
		b, _ := core.NewBiasedReservoir(0.002, rng.Split()) // reservoir 500
		for _, p := range pts {
			b.Add(p)
		}
		dist, err := Accumulate(core.SnapshotOf(b), 500, 0, nil).Distribution()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, f := range dist {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("fractions sum to %v", sum)
		}
		f0 += dist[0]
		f1 += dist[1]
	}
	f0 /= trials
	f1 /= trials
	if math.Abs(f0-0.9) > 0.05 || math.Abs(f1-0.1) > 0.05 {
		t.Fatalf("mean class distribution {0:%v, 1:%v}, want ~{0:0.9, 1:0.1}", f0, f1)
	}
	empty, _ := core.NewBiasedReservoir(0.1, xrand.New(1))
	if _, err := Accumulate(core.SnapshotOf(empty), 10, 0, nil).Distribution(); err == nil {
		t.Error("empty reservoir gave a class distribution")
	}
}

func TestRangeSelectivityEstimate(t *testing.T) {
	// λ·h = 1: the horizon the bias rate is tuned for. Much deeper
	// horizons would make 1/p weights explode — exactly the variance
	// trade-off Lemma 4.1 describes.
	const (
		total   = 30000
		horizon = 500
		trials  = 25
	)
	rng := xrand.New(41)
	pts := make([]stream.Point, total)
	for i := range pts {
		pts[i] = stream.Point{Index: uint64(i + 1), Values: []float64{rng.Float64()}, Weight: 1}
	}
	rect, _ := NewRect([]int{0}, []float64{0}, []float64{0.25})
	var sum float64
	for trial := 0; trial < trials; trial++ {
		b, _ := core.NewBiasedReservoir(0.002, rng.Split())
		for _, p := range pts {
			b.Add(p)
		}
		got, err := Accumulate(core.SnapshotOf(b), horizon, 0, &rect).Selectivity()
		if err != nil {
			t.Fatal(err)
		}
		sum += got
	}
	if got := sum / trials; math.Abs(got-0.25) > 0.05 {
		t.Fatalf("mean selectivity %v, want ~0.25", got)
	}
	empty, _ := core.NewBiasedReservoir(0.1, xrand.New(1))
	if _, err := Accumulate(core.SnapshotOf(empty), 10, 0, &rect).Selectivity(); err == nil {
		t.Error("empty reservoir gave a selectivity")
	}
}
