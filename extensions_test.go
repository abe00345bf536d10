package biasedres

import "testing"

func TestTimeDecayFacade(t *testing.T) {
	d, err := NewTimeDecay(0.001, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Irregular timestamps: bursts separated by idle gaps.
	ts := 0.0
	for i := 1; i <= 5000; i++ {
		if i%100 == 0 {
			ts += 500 // idle gap
		} else {
			ts += 0.1
		}
		if err := d.AddAt(Point{Index: uint64(i), Values: []float64{1}, Weight: 1}, ts); err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() == 0 || d.Len() > 100 {
		t.Fatalf("len = %d", d.Len())
	}
	// Residents' probabilities follow the time decay.
	for _, p := range d.Points() {
		if pr := d.InclusionProb(p.Index); pr <= 0 || pr > 1 {
			t.Fatalf("resident %d prob %v", p.Index, pr)
		}
	}
}

func TestWeightedFacade(t *testing.T) {
	w, err := NewWeighted(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		weight := 1.0
		if i%100 == 0 {
			weight = 1000
		}
		w.Add(Point{Index: uint64(i), Weight: weight})
	}
	heavy := 0
	for _, p := range w.Points() {
		if p.Index%100 == 0 {
			heavy++
		}
	}
	if heavy < 8 {
		t.Fatalf("only %d/10 slots hold the 1000x-weight points", heavy)
	}
}

func TestQuantileFacade(t *testing.T) {
	b, err := NewBiased(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10000; i++ {
		b.Add(Point{Index: uint64(i), Values: []float64{float64(i % 100)}, Weight: 1})
	}
	med, err := Median(b, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if med < 20 || med > 80 {
		t.Fatalf("median of uniform 0..99 values estimated %v", med)
	}
	if _, err := Quantile(b, 0, 0, 1.5); err == nil {
		t.Error("q>1 accepted")
	}
}

func TestKMeansFacade(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Dim, cfg.K, cfg.Radius, cfg.Drift, cfg.Total, cfg.Seed = 2, 3, 0.05, 0, 900, 5
	g, err := NewClusterStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := Collect(g, 0)
	res, err := KMeans(pts, KMeansConfig{K: 3, Restarts: 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	purity, err := ClusterPurity(pts, res.Assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	if purity < 0.95 {
		t.Fatalf("purity %v on separable clusters", purity)
	}
}

func TestTTBSFacade(t *testing.T) {
	s, err := NewTTBS(0.01, 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		s.Add(Point{Index: uint64(i), Values: []float64{1}, Weight: 1})
	}
	if s.Len() == 0 || s.Capacity() != 80 {
		t.Fatalf("len = %d, capacity = %d", s.Len(), s.Capacity())
	}
	// Inclusion probabilities are exact and in range.
	if got := s.InclusionProb(4000); got <= 0 || got > 1 {
		t.Fatalf("p(4000) = %v", got)
	}
	// HT estimation over the exact probabilities stays in range.
	if est := Estimate(s, CountQuery(500)); est < 100 || est > 2500 {
		t.Fatalf("count estimate %v over horizon 500", est)
	}
	// The target bound n ≤ 1/(1-e^{-λ}) is enforced.
	if _, err := NewTTBS(0.01, 500, 5); err == nil {
		t.Error("target 500 at λ=0.01 accepted (bound ≈ 100)")
	}
}

func TestRTBSFacade(t *testing.T) {
	s, err := NewRTBS(0.01, 60, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		s.Add(Point{Index: uint64(i), Values: []float64{1}, Weight: 1})
	}
	if s.Len() > 60 {
		t.Fatalf("len = %d exceeds the hard bound 60", s.Len())
	}
	for _, p := range s.Points() {
		if prob := s.InclusionProb(p.Index); prob <= 0 || prob > 1 {
			t.Fatalf("p(%d) = %v", p.Index, prob)
		}
	}
	if est := Estimate(s, CountQuery(500)); est < 100 || est > 2500 {
		t.Fatalf("count estimate %v over horizon 500", est)
	}
}
