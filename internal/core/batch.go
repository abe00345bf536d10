package core

import "biasedres/internal/stream"

// BatchSampler is implemented by samplers with a batch ingest fast path.
// AddBatch(pts) is equivalent in distribution to calling Add on each point
// of pts in order, but amortizes work across the batch: the biased samplers
// replace the per-point p_in coin with one geometric skip draw per admitted
// point, and Algorithm Z consumes its skip counter in bulk. The batch
// methods are what the HTTP ingest path and the multi-stream manager call,
// so a lock held around one AddBatch covers the whole batch.
type BatchSampler interface {
	Sampler

	// AddBatch processes pts as len(pts) consecutive arrivals, in order.
	// Like Add, the sampler copies the values of any point it retains;
	// the caller may reuse pts and its values once the call returns.
	AddBatch(pts []stream.Point)
}

var (
	_ BatchSampler = (*BiasedReservoir)(nil)
	_ BatchSampler = (*VariableReservoir)(nil)
	_ BatchSampler = (*ZReservoir)(nil)
	_ BatchSampler = (*Synchronized)(nil)
)

// AddBatch feeds pts to s in arrival order, using the sampler's batch fast
// path when it implements BatchSampler and falling back to point-at-a-time
// Add otherwise. It is the polymorphic entry point the server and manager
// ingest paths use, so every policy — batched or not — accepts the same
// requests.
func AddBatch(s Sampler, pts []stream.Point) {
	if bs, ok := s.(BatchSampler); ok {
		bs.AddBatch(pts)
		return
	}
	for _, p := range pts {
		s.Add(p)
	}
}
