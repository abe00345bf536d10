package biasedres

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figures 1-9; the paper has no numbered tables), plus micro-benchmarks of
// the samplers and estimators and the ablation sweeps called out in
// DESIGN.md §4.
//
// The figure benchmarks run their experiment drivers at a reduced scale so
// `go test -bench=.` finishes in minutes, and report the figure's headline
// *shape* metric via b.ReportMetric — e.g. the unbiased/biased error ratio
// at the smallest horizon — so a regression in the reproduced result is
// visible directly in benchmark output. `go run ./cmd/experiments -all
// -scale 1` regenerates the figures at full paper scale.

import (
	"fmt"
	"testing"

	"biasedres/internal/experiments"
)

const benchScale = 0.1

func benchFigure(b *testing.B, id string, metric func(*experiments.Result) (string, float64)) {
	b.Helper()
	cfg := experiments.Config{Scale: benchScale, Seed: 1}
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil && metric != nil {
		name, v := metric(last)
		b.ReportMetric(v, name)
	}
}

// errRatioSmallHorizon reports unbiased/biased error at the smallest
// horizon — the paper's headline advantage (>1 means biased wins).
func errRatioSmallHorizon(res *experiments.Result) (string, float64) {
	bs, _ := res.Get("biased")
	us, _ := res.Get("unbiased")
	if len(bs.Y) == 0 || len(us.Y) == 0 || bs.Y[0] == 0 {
		return "err-ratio", 0
	}
	return "err-ratio", us.Y[0] / bs.Y[0]
}

func BenchmarkFig1ReservoirFill(b *testing.B) {
	benchFigure(b, "fig1", func(res *experiments.Result) (string, float64) {
		v, _ := res.Get("variable")
		f, _ := res.Get("fixed")
		if len(v.Y) == 0 || len(f.Y) == 0 || f.Y[len(f.Y)-1] == 0 {
			return "fill-ratio", 0
		}
		return "fill-ratio", v.Y[len(v.Y)-1] / f.Y[len(f.Y)-1]
	})
}

func BenchmarkFig2SumQueryIntrusion(b *testing.B) { benchFigure(b, "fig2", errRatioSmallHorizon) }

func BenchmarkFig3SumQuerySynthetic(b *testing.B) { benchFigure(b, "fig3", errRatioSmallHorizon) }

func BenchmarkFig4CountQuery(b *testing.B) { benchFigure(b, "fig4", errRatioSmallHorizon) }

func BenchmarkFig5RangeSelectivity(b *testing.B) { benchFigure(b, "fig5", errRatioSmallHorizon) }

func BenchmarkFig6Progression(b *testing.B) {
	benchFigure(b, "fig6", func(res *experiments.Result) (string, float64) {
		bs, _ := res.Get("biased")
		us, _ := res.Get("unbiased")
		if len(bs.Y) == 0 || bs.Y[len(bs.Y)-1] == 0 {
			return "final-err-ratio", 0
		}
		return "final-err-ratio", us.Y[len(us.Y)-1] / bs.Y[len(bs.Y)-1]
	})
}

func accuracyGap(res *experiments.Result) (string, float64) {
	bs, _ := res.Get("biased")
	us, _ := res.Get("unbiased")
	if len(bs.Y) == 0 || len(us.Y) == 0 {
		return "acc-gap", 0
	}
	var mb, mu float64
	for _, y := range bs.Y {
		mb += y
	}
	for _, y := range us.Y {
		mu += y
	}
	return "acc-gap", mb/float64(len(bs.Y)) - mu/float64(len(us.Y))
}

func BenchmarkFig7ClassifyIntrusion(b *testing.B) { benchFigure(b, "fig7", accuracyGap) }

func BenchmarkFig8ClassifySynthetic(b *testing.B) { benchFigure(b, "fig8", accuracyGap) }

func BenchmarkFig9Evolution(b *testing.B) {
	benchFigure(b, "fig9", func(res *experiments.Result) (string, float64) {
		mb, _ := res.Get("mixing-biased")
		mu, _ := res.Get("mixing-unbiased")
		if len(mb.Y) == 0 || len(mu.Y) == 0 {
			return "mixing-gap", 0
		}
		return "mixing-gap", mu.Y[len(mu.Y)-1] - mb.Y[len(mb.Y)-1]
	})
}

// Extension experiments (EXPERIMENTS.md "Extension experiments").

func benchExt(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Scale: benchScale, Seed: 1}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := experiments.RunExt(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtLambdaSweep(b *testing.B)      { benchExt(b, "extlambda") }
func BenchmarkExtWindowComparison(b *testing.B) { benchExt(b, "extwindow") }
func BenchmarkExtTimeDecay(b *testing.B)        { benchExt(b, "exttime") }

// --- Sampler micro-benchmarks: cost per arriving point. ---

func benchSamplerAdd(b *testing.B, mk func() (Sampler, error)) {
	b.Helper()
	s, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	p := Point{Values: []float64{1, 2, 3, 4}, Weight: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Index = uint64(i + 1)
		s.Add(p)
	}
}

func BenchmarkAddBiased(b *testing.B) {
	benchSamplerAdd(b, func() (Sampler, error) { return NewBiased(0.001, 1) })
}

func BenchmarkAddConstrained(b *testing.B) {
	benchSamplerAdd(b, func() (Sampler, error) { return NewConstrained(1e-5, 1000, 1) })
}

func BenchmarkAddVariable(b *testing.B) {
	benchSamplerAdd(b, func() (Sampler, error) { return NewVariable(1e-5, 1000, 1) })
}

func BenchmarkAddUnbiased(b *testing.B) {
	benchSamplerAdd(b, func() (Sampler, error) { return NewUnbiased(1000, 1) })
}

func BenchmarkAddZUnbiased(b *testing.B) {
	benchSamplerAdd(b, func() (Sampler, error) { return NewZUnbiased(1000, 1) })
}

func BenchmarkAddTimeDecay(b *testing.B) {
	benchSamplerAdd(b, func() (Sampler, error) { return NewTimeDecay(0.001, 1000, 1) })
}

func BenchmarkAddWindow(b *testing.B) {
	benchSamplerAdd(b, func() (Sampler, error) { return NewWindow(10000, 100, 1) })
}

func BenchmarkAddSynchronized(b *testing.B) {
	benchSamplerAdd(b, func() (Sampler, error) {
		s, err := NewBiased(0.001, 1)
		if err != nil {
			return nil, err
		}
		return Synchronized(s), nil
	})
}

// --- Estimator micro-benchmarks. ---

func BenchmarkEstimateCount(b *testing.B) {
	s, err := NewBiased(0.001, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 100000; i++ {
		s.Add(Point{Index: uint64(i), Values: []float64{float64(i)}, Weight: 1})
	}
	q := CountQuery(5000)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += Estimate(s, q)
	}
	_ = sink
}

func BenchmarkHorizonAverage(b *testing.B) {
	s, err := NewBiased(0.001, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 100000; i++ {
		s.Add(Point{Index: uint64(i), Values: []float64{1, 2, 3, 4, 5}, Weight: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HorizonAverage(s, 5000, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNNClassify(b *testing.B) {
	s, err := NewBiased(0.001, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultClusterConfig()
	cfg.Total = 20000
	g, err := NewClusterStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	Drive(g, func(p Point) bool { s.Add(p); return true })
	knn, err := NewKNN(1, s)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knn.Classify(x); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4). ---

// Ablation: how the insertion probability p_in (via capacity at fixed λ)
// affects fill level after a fixed stream prefix — quantifying Theorem 3.2.
func BenchmarkAblationInsertionProbability(b *testing.B) {
	const lambda = 1e-5
	for _, capacity := range []int{100, 1000, 10000} {
		capacity := capacity
		b.Run(fmt.Sprintf("pin=%.0e", float64(capacity)*lambda), func(b *testing.B) {
			var fill float64
			for i := 0; i < b.N; i++ {
				s, err := NewConstrained(lambda, capacity, uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				for j := 1; j <= 100000; j++ {
					s.Add(Point{Index: uint64(j), Weight: 1})
				}
				fill = float64(s.Len()) / float64(capacity)
			}
			b.ReportMetric(fill, "fill-frac")
		})
	}
}

// Ablation: the variable-sampling reduction factor trades phase count
// against how empty the reservoir momentarily gets. The paper recommends
// 1-1/n_max (one ejection per phase).
func BenchmarkAblationReductionFactor(b *testing.B) {
	const lambda, nmax = 1e-4, 1000
	for _, factor := range []float64{0.5, 0.9, 0.999} {
		factor := factor
		b.Run(fmt.Sprintf("factor=%v", factor), func(b *testing.B) {
			var minFill float64
			for i := 0; i < b.N; i++ {
				s2, err := NewVariableWithFactor(lambda, nmax, uint64(i+1), factor)
				if err != nil {
					b.Fatal(err)
				}
				minFill = 1
				for j := 1; j <= 50000; j++ {
					s2.Add(Point{Index: uint64(j), Weight: 1})
					if j > 2*nmax {
						if f := float64(s2.Len()) / float64(nmax); f < minFill {
							minFill = f
						}
					}
				}
			}
			b.ReportMetric(minFill, "min-fill")
		})
	}
}

// Ablation: exact (1-p_in/n)^{t-r} vs approximate e^{-λ(t-r)} inclusion
// probabilities in the estimator — measuring the cost and the estimate
// difference of the exact form.
func BenchmarkAblationExactInclusionProb(b *testing.B) {
	s, err := NewConstrained(1e-4, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 200000; i++ {
		s.Add(Point{Index: uint64(i), Weight: 1})
	}
	t := s.Processed()
	b.Run("approx", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, p := range s.Points() {
				sink += s.InclusionProb(p.Index)
			}
		}
		_ = sink
	})
	b.Run("exact", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, p := range s.Points() {
				sink += s.InclusionProbExact(p.Index)
			}
		}
		_ = sink
	})
	// Report the worst-case relative gap across the reservoir.
	var worst float64
	for _, p := range s.Points() {
		a, e := s.InclusionProb(p.Index), s.InclusionProbExact(p.Index)
		if e > 0 {
			if gap := (a - e) / e; gap > worst {
				worst = gap
			}
		}
	}
	_ = t
	b.Run("gap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
		b.ReportMetric(worst, "max-rel-gap")
	})
}

// Ablation: reservoir size sweep at fixed λ·n (the accuracy/space
// trade-off for a fixed horizon query).
func BenchmarkAblationReservoirSize(b *testing.B) {
	for _, n := range []int{100, 300, 1000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			lambda := 0.1 / float64(n)
			var mae float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultClusterConfig()
				cfg.Total = 50000
				cfg.Seed = uint64(i + 1)
				g, err := NewClusterStream(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s, err := NewVariable(lambda, n, uint64(i+7))
				if err != nil {
					b.Fatal(err)
				}
				truth, err := NewTruth(2000)
				if err != nil {
					b.Fatal(err)
				}
				Drive(g, func(p Point) bool {
					truth.Observe(p)
					s.Add(p)
					return true
				})
				est, err := HorizonAverage(s, 2000, 10)
				if err != nil {
					b.Fatal(err)
				}
				exact, err := truth.Average(2000, 10)
				if err != nil {
					b.Fatal(err)
				}
				mae = 0
				for d := range est {
					diff := est[d] - exact[d]
					if diff < 0 {
						diff = -diff
					}
					mae += diff
				}
				mae /= float64(len(est))
			}
			b.ReportMetric(mae, "mae")
		})
	}
}
