package core

import (
	"fmt"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// MergeUnbiased combines reservoirs maintained over disjoint substreams
// (e.g. shards of a partitioned stream) into one uniform sample of the
// union — the distributed-aggregation companion to Algorithm R.
//
// Each output slot independently picks a source with probability
// proportional to that source's *stream length* (not its reservoir size)
// and then takes a random not-yet-taken resident from the chosen source's
// reservoir. Because each source reservoir is itself uniform over its
// substream, the result is uniform over the union: every point of the
// combined stream of length T = Σ tᵢ ends up included with probability
// n/T. The output size n must not exceed any source's reservoir size —
// beyond that, a source could be asked for more distinct points than it
// holds and uniformity would break.
//
// The sources are read, not consumed; the returned reservoir is a fresh
// UnbiasedReservoir positioned at the union's stream length, ready to keep
// sampling if more points arrive (indices must continue beyond all merged
// ones).
func MergeUnbiased(n int, rng *xrand.Source, sources ...*UnbiasedReservoir) (*UnbiasedReservoir, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: merge needs n > 0, got %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: merge needs a random source")
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: merge needs at least one source")
	}
	var total uint64
	for i, src := range sources {
		if src == nil {
			return nil, fmt.Errorf("core: merge source %d is nil", i)
		}
		if src.Len() < n {
			return nil, fmt.Errorf(
				"core: merge source %d holds %d points, need at least n=%d (shrink n or fill the source)",
				i, src.Len(), n)
		}
		total += src.Processed()
	}

	// Working copies: remaining[i] holds the source's residents not yet
	// taken; weight[i] its remaining claim on the union.
	remaining := make([][]stream.Point, len(sources))
	weight := make([]float64, len(sources))
	for i, src := range sources {
		remaining[i] = src.Sample()
		weight[i] = float64(src.Processed())
	}

	out, err := NewUnbiasedReservoir(n, rng)
	if err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		// Pick a source proportional to its remaining stream weight.
		var sum float64
		for _, w := range weight {
			sum += w
		}
		target := rng.Float64() * sum
		src := 0
		var cum float64
		for i, w := range weight {
			cum += w
			if target < cum {
				src = i
				break
			}
		}
		// Take a uniform random untaken resident from that source.
		pool := remaining[src]
		j := rng.Intn(len(pool))
		out.st.Pts = append(out.st.Pts, pool[j])
		pool[j] = pool[len(pool)-1]
		remaining[src] = pool[:len(pool)-1]
		// The taken point represented t/len(reservoir) stream points;
		// reduce the source's claim accordingly so later slots see the
		// union minus what is already drawn.
		weight[src] -= float64(sources[src].Processed()) / float64(sources[src].Len())
		if weight[src] < 0 {
			weight[src] = 0
		}
	}
	out.st.T = total
	return out, nil
}
