package multi

import (
	"fmt"
	"sync"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/query"
	"biasedres/internal/stream"
)

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(0, 0.01, 1); err == nil {
		t.Error("budget 0 accepted")
	}
	if _, err := NewManager(100, 0, 1); err == nil {
		t.Error("lambda 0 accepted")
	}
}

func TestRegisterBudgetAccounting(t *testing.T) {
	m, err := NewManager(100, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("a", 40); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("b", 40); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 80 || m.Remaining() != 20 || m.Len() != 2 {
		t.Fatalf("used/remaining/len = %d/%d/%d", m.Used(), m.Remaining(), m.Len())
	}
	if err := m.Register("c", 40); err == nil {
		t.Error("over-budget registration accepted")
	}
	if err := m.Register("a", 10); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := m.Register("d", 0); err == nil {
		t.Error("zero share accepted")
	}
	if err := m.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if m.Remaining() != 60 {
		t.Fatalf("remaining after unregister = %d", m.Remaining())
	}
	if err := m.Unregister("a"); err == nil {
		t.Error("double unregister accepted")
	}
}

func TestRegisterShareCappedByRequirement(t *testing.T) {
	m, _ := NewManager(1000, 0.1, 1) // max requirement 10
	if err := m.Register("a", 11); err == nil {
		t.Error("share beyond 1/λ accepted")
	}
	if err := m.Register("a", 10); err != nil {
		t.Fatalf("legal share rejected: %v", err)
	}
}

func TestRegisterEven(t *testing.T) {
	m, _ := NewManager(100, 0.001, 1)
	if err := m.RegisterEven([]string{"a", "b", "c", "d"}); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 100 {
		t.Fatalf("used = %d, want 100", m.Used())
	}
	for _, s := range m.StreamStats() {
		if s.Share != 25 {
			t.Fatalf("share = %d, want 25", s.Share)
		}
	}
	if err := m.RegisterEven(nil); err == nil {
		t.Error("empty name list accepted")
	}
	m2, _ := NewManager(3, 0.001, 1)
	if err := m2.RegisterEven([]string{"a", "b", "c", "d"}); err == nil {
		t.Error("budget smaller than stream count accepted")
	}
	// Even shares are capped by the requirement.
	m3, _ := NewManager(1000, 0.1, 1) // requirement 10 < 1000/2
	if err := m3.RegisterEven([]string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	for _, s := range m3.StreamStats() {
		if s.Share != 10 {
			t.Fatalf("capped share = %d, want 10", s.Share)
		}
	}
}

// Regression test: the share cap used to be an ad-hoc int(1/λ) truncation
// that could drift from core.ReservoirCapacity, the rule the reservoir
// constructors themselves enforce. Whatever share the manager admits as
// maximal must be constructible, and one more must be rejected — across a
// spread of awkward λ values.
func TestShareCapMatchesReservoirCapacity(t *testing.T) {
	for _, lambda := range []float64{1, 0.5, 0.3, 1.0 / 3.0, 0.1, 0.007, 1e-3, 1e-4, 0.99} {
		want, err := core.ReservoirCapacity(lambda)
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		m, _ := NewManager(1<<30, lambda, 1)
		if err := m.Register("max", want); err != nil {
			t.Errorf("λ=%v: maximal share %d rejected: %v", lambda, want, err)
		}
		if err := m.Register("over", want+1); err == nil {
			t.Errorf("λ=%v: share %d beyond the requirement accepted", lambda, want+1)
		}
	}
}

// Registration at a λ the capacity rule refuses — above 1, or so small
// that ⌊1/λ⌋ does not fit an int — answers with the rule's refusal.
func TestRegisterRejectsLambdaOutsideCapacityRule(t *testing.T) {
	for _, lambda := range []float64{1.5, 1e-20} {
		m, _ := NewManager(100, lambda, 1) // NewManager only checks λ > 0
		_, want := core.ReservoirCapacity(lambda)
		if want == nil {
			t.Fatalf("λ=%v: the capacity rule accepts it", lambda)
		}
		if err := m.Register("a", 2); err == nil || err.Error() != "multi: "+want.Error() {
			t.Errorf("λ=%v: Register = %v, want multi: %v", lambda, err, want)
		}
		if err := m.RegisterEven([]string{"a", "b"}); err == nil || err.Error() != "multi: "+want.Error() {
			t.Errorf("λ=%v: RegisterEven = %v, want multi: %v", lambda, err, want)
		}
	}
}

func TestManagerCollect(t *testing.T) {
	m, _ := NewManager(100, 0.01, 7)
	if err := m.RegisterEven([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if err := m.Add("a", stream.Point{Index: uint64(i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	find := func(name string) (map[string]float64, bool) {
		for _, fam := range m.Collect() {
			if fam.Name != name {
				continue
			}
			out := make(map[string]float64)
			for _, s := range fam.Samples {
				key := ""
				if len(s.Labels) > 0 {
					key = s.Labels[0].Value
				}
				out[key] = s.Value
			}
			return out, true
		}
		return nil, false
	}
	if v, ok := find("biasedres_multi_budget_slots"); !ok || v[""] != 100 {
		t.Fatalf("budget gauge = %v ok=%v", v, ok)
	}
	if v, ok := find("biasedres_multi_used_slots"); !ok || v[""] != 100 {
		t.Fatalf("used gauge = %v ok=%v", v, ok)
	}
	if v, ok := find("biasedres_multi_streams"); !ok || v[""] != 2 {
		t.Fatalf("streams gauge = %v ok=%v", v, ok)
	}
	if v, ok := find("biasedres_multi_stream_processed_total"); !ok || v["a"] != 200 || v["b"] != 0 {
		t.Fatalf("per-stream processed = %v ok=%v", v, ok)
	}
	if v, ok := find("biasedres_multi_stream_share_slots"); !ok || v["a"] != 50 || v["b"] != 50 {
		t.Fatalf("per-stream share = %v ok=%v", v, ok)
	}
	sizes, ok := find("biasedres_multi_stream_reservoir_size")
	if !ok || sizes["a"] <= 0 || sizes["a"] > 50 {
		t.Fatalf("per-stream size = %v ok=%v", sizes, ok)
	}
}

func TestAddAndSample(t *testing.T) {
	m, _ := NewManager(50, 0.01, 2)
	if err := m.Register("s", 50); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("nope", stream.Point{Index: 1}); err == nil {
		t.Error("add to unregistered stream accepted")
	}
	for i := 1; i <= 500; i++ {
		if err := m.Add("s", stream.Point{Index: uint64(i), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sample, err := m.Sample("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) == 0 || len(sample) > 50 {
		t.Fatalf("sample size %d", len(sample))
	}
	if _, err := m.Sample("nope"); err == nil {
		t.Error("sample of unregistered stream accepted")
	}
	st := m.StreamStats()
	if len(st) != 1 || st[0].Name != "s" || st[0].Processed != 500 {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Fill <= 0.9 {
		t.Fatalf("variable reservoir fill = %v, want near full", st[0].Fill)
	}
}

func TestManagerQueries(t *testing.T) {
	m, _ := NewManager(200, 1e-3, 5)
	if err := m.Register("s", 200); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5000; i++ {
		label := 0
		if i%4 == 0 {
			label = 1
		}
		err := m.Add("s", stream.Point{
			Index:  uint64(i),
			Values: []float64{float64(i % 10)},
			Label:  label,
			Weight: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	avg, err := m.Average("s", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if avg[0] < 2 || avg[0] > 7 {
		t.Fatalf("average = %v, want ~4.5", avg[0])
	}
	dist, err := m.ClassDistribution("s", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] < 0.5 || dist[0] > 0.95 {
		t.Fatalf("class 0 fraction = %v, want ~0.75", dist[0])
	}
	cnt, err := m.Estimate("s", query.Count(1000))
	if err != nil {
		t.Fatal(err)
	}
	if cnt < 300 || cnt > 3000 {
		t.Fatalf("count estimate = %v, want ~1000", cnt)
	}
	// Unknown stream errors through every query path.
	if _, err := m.Average("nope", 10, 1); err == nil {
		t.Error("Average on unknown stream accepted")
	}
	if _, err := m.ClassDistribution("nope", 10); err == nil {
		t.Error("ClassDistribution on unknown stream accepted")
	}
	if _, err := m.Estimate("nope", query.Count(10)); err == nil {
		t.Error("Estimate on unknown stream accepted")
	}
	if err := m.With("nope", func(core.Sampler) error { return nil }); err == nil {
		t.Error("With on unknown stream accepted")
	}
}

func TestConcurrentStreams(t *testing.T) {
	const streams, perStream = 16, 2000
	m, _ := NewManager(streams*20, 0.05, 3)
	names := make([]string, streams)
	for i := range names {
		names[i] = fmt.Sprintf("stream-%02d", i)
	}
	if err := m.RegisterEven(names); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 1; i <= perStream; i++ {
				if err := m.Add(name, stream.Point{Index: uint64(i), Weight: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
	}
	// Concurrent stats readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = m.StreamStats()
		}
	}()
	wg.Wait()
	<-done
	for _, s := range m.StreamStats() {
		if s.Processed != perStream {
			t.Fatalf("stream %s processed %d, want %d", s.Name, s.Processed, perStream)
		}
		if s.Len > s.Share {
			t.Fatalf("stream %s exceeded its share: %d > %d", s.Name, s.Len, s.Share)
		}
	}
	if m.Budget() != streams*20 {
		t.Fatalf("budget = %d", m.Budget())
	}
}

func TestAddBatch(t *testing.T) {
	m, _ := NewManager(50, 0.01, 2)
	if err := m.Register("s", 50); err != nil {
		t.Fatal(err)
	}
	if err := m.AddBatch("nope", []stream.Point{{Index: 1}}); err == nil {
		t.Error("batch add to unregistered stream accepted")
	}
	const batches, per = 10, 50
	var next uint64 = 1
	for b := 0; b < batches; b++ {
		pts := make([]stream.Point, per)
		for i := range pts {
			pts[i] = stream.Point{Index: next, Values: []float64{float64(next)}, Weight: 1}
			next++
		}
		if err := m.AddBatch("s", pts); err != nil {
			t.Fatal(err)
		}
	}
	st := m.StreamStats()
	if len(st) != 1 || st[0].Processed != batches*per {
		t.Fatalf("stats = %+v, want %d processed", st, batches*per)
	}
	sample, err := m.Sample("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) == 0 || len(sample) > 50 {
		t.Fatalf("sample size %d", len(sample))
	}
}

func TestAddBatchConcurrent(t *testing.T) {
	m, _ := NewManager(100, 0.01, 3)
	if err := m.RegisterEven([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	const producers, batches, per = 4, 20, 25
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		for _, name := range []string{"a", "b"} {
			wg.Add(1)
			go func(name string, p int) {
				defer wg.Done()
				next := uint64(p*batches*per + 1)
				for b := 0; b < batches; b++ {
					pts := make([]stream.Point, per)
					for i := range pts {
						pts[i] = stream.Point{Index: next, Weight: 1}
						next++
					}
					if err := m.AddBatch(name, pts); err != nil {
						t.Error(err)
						return
					}
				}
			}(name, p)
		}
	}
	wg.Wait()
	for _, st := range m.StreamStats() {
		if st.Processed != producers*batches*per {
			t.Fatalf("stream %s processed %d, want %d", st.Name, st.Processed, producers*batches*per)
		}
	}
}

func TestRegisterTiered(t *testing.T) {
	m, err := NewManager(1000, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 3 tiers × 100 slots charge 300 against the budget.
	if err := m.RegisterTiered("s", 100, 3, 8); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 300 {
		t.Fatalf("used = %d, want 300 (share × tiers)", m.Used())
	}
	// Validation: bad shapes are rejected without charging the budget.
	for name, call := range map[string]func() error{
		"one tier":    func() error { return m.RegisterTiered("x", 100, 1, 8) },
		"bad ratio":   func() error { return m.RegisterTiered("x", 100, 3, 0.5) },
		"zero share":  func() error { return m.RegisterTiered("x", 0, 3, 8) },
		"over cap":    func() error { return m.RegisterTiered("x", 2000, 3, 8) },
		"over budget": func() error { return m.RegisterTiered("x", 300, 3, 8) },
		"duplicate":   func() error { return m.RegisterTiered("s", 100, 3, 8) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if m.Used() != 300 {
		t.Fatalf("used after rejections = %d, want 300", m.Used())
	}

	for i := 1; i <= 20000; i++ {
		if err := m.Add("s", stream.Point{Index: uint64(i), Values: []float64{1}, Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Horizon routing: h within tier 0's horizon 1000 stays shallow, wider
	// horizons walk down the ladder.
	for _, tc := range []struct {
		h    uint64
		tier int
	}{{500, 0}, {5000, 1}, {20000, 2}} {
		_, tier, err := m.SnapshotFor("s", tc.h)
		if err != nil {
			t.Fatal(err)
		}
		if tier != tc.tier {
			t.Errorf("SnapshotFor(h=%d) routed to tier %d, want %d", tc.h, tier, tc.tier)
		}
	}
	// Untiered streams report tier -1 through the same call.
	if err := m.Register("plain", 50); err != nil {
		t.Fatal(err)
	}
	if _, tier, err := m.SnapshotFor("plain", 100); err != nil || tier != -1 {
		t.Fatalf("SnapshotFor(plain) = tier %d err %v, want -1, nil", tier, err)
	}

	// Tier-routed estimators answer near the truth (count of last h ≈ h
	// via the average path: all values are 1, so the average is exactly 1).
	avg, err := m.Average("s", 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(avg) != 1 || avg[0] != 1 {
		t.Fatalf("tier-routed Average = %v, want [1]", avg)
	}

	// Unregister returns the whole ladder's charge.
	if err := m.Unregister("s"); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 50 {
		t.Fatalf("used after unregister = %d, want 50", m.Used())
	}
}
