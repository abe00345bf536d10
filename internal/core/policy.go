package core

import (
	"cmp"
	"fmt"
	"math"

	"biasedres/internal/xrand"
)

// SamplerConfig names a sampler policy and its parameters. It is the one
// description every deployment builds samplers from: it is the server's
// create request (PUT /streams/{name}) and the client's StreamConfig,
// every durable checkpoint carries it, and multi.Manager fills in its own
// λ and per-stream share.
type SamplerConfig struct {
	// Policy is one of Policies(); the server defaults an empty policy.
	Policy string `json:"policy,omitempty"`
	// Lambda is the bias rate (biased policies).
	Lambda float64 `json:"lambda,omitempty"`
	// Capacity is the reservoir budget; 0 derives ⌊1/λ⌋ for "biased". In
	// a ladder it is the per-tier budget.
	Capacity int `json:"capacity,omitempty"`
	// Window is the window length for the "window" policy.
	Window uint64 `json:"window,omitempty"`
	// Tiers, when > 1, builds a TieredReservoir: tier i runs the policy at
	// λ/TierRatio^i with the same Capacity, so horizon-carrying queries can
	// be routed to the tier covering them. Every policy with a λ supports
	// tiers (see policies).
	Tiers int `json:"tiers,omitempty"`
	// TierRatio is the λ spacing between tiers (0 = DefaultTierRatio).
	TierRatio float64 `json:"tier_ratio,omitempty"`
}

// DefaultTierRatio is the λ spacing between consecutive tiers when a
// config leaves TierRatio unset. Consecutive horizons then differ by 8×, so
// four tiers span three orders of magnitude while the worst-case horizon
// overshoot (the variance cost of routing, docs/THEORY.md §10) stays
// bounded by one ratio step.
const DefaultTierRatio = 8

// MaxSlots bounds the reservoir slots a config may claim: samplers
// preallocate, so without it one create could exhaust memory (at the bound
// point headers take about 200 MB). It sits far above every config the
// repository runs (at most 73,000 slots, a three-tier uncapped biased
// ladder at λ = 1e-3), because a recovered stream above it is refused.
const MaxSlots = 1 << 22

// Slots is the number of reservoir slots c claims, at least one per tier:
// Capacity per tier (for "window" its slot count), or for an uncapped
// "biased" sampler each tier's maximum requirement ⌊1/λ_i⌋ = ⌊ratio^i/λ⌋.
// Registries charge it against their budget and SamplerFactory refuses a
// config over MaxSlots. The sum stops once it passes MaxSlots, so a
// refused config's figure is a lower bound.
func (c SamplerConfig) Slots() int {
	ratio := cmp.Or(c.TierRatio, DefaultTierRatio)
	n := 0
	// λ_i steps as in NewTieredReservoir; a bad λ or ratio counts 1 a tier.
	for i, l := 0, c.Lambda; i < max(c.Tiers, 1) && n <= MaxSlots; i, l = i+1, l/ratio {
		k := min(float64(max(c.Capacity, 1)), 2*MaxSlots)
		if c.Policy == "biased" && c.Capacity == 0 && l > 0 {
			k = max(1, math.Floor(min(1/l, 2*MaxSlots)))
		}
		n += int(k)
	}
	return n
}

// policy is one entry of the sampler registry.
type policy struct {
	name  string
	build func(c SamplerConfig, rng *xrand.Source) (PersistentSampler, error)
	// tiered reports whether the policy has a λ to space a ladder over.
	tiered bool
}

// policies is the sampler registry, in the order the documentation
// presents the families. Adding a family means adding one entry here.
var policies = []policy{
	{"variable", func(c SamplerConfig, rng *xrand.Source) (PersistentSampler, error) {
		return NewVariableReservoir(c.Lambda, c.Capacity, rng)
	}, true},
	{"biased", func(c SamplerConfig, rng *xrand.Source) (PersistentSampler, error) {
		if c.Capacity == 0 {
			// Uncapped Algorithm 2.1 takes its maximum requirement ⌊1/λ⌋;
			// as a ladder, memory grows by ratio× per tier (see the
			// tier-tuning runbook in docs/OPERATIONS.md).
			return NewBiasedReservoir(c.Lambda, rng)
		}
		return NewConstrainedReservoir(c.Lambda, c.Capacity, rng)
	}, true},
	{"constrained", func(c SamplerConfig, rng *xrand.Source) (PersistentSampler, error) {
		return NewConstrainedReservoir(c.Lambda, c.Capacity, rng)
	}, true},
	{"unbiased", func(c SamplerConfig, rng *xrand.Source) (PersistentSampler, error) {
		return NewUnbiasedReservoir(c.Capacity, rng)
	}, false},
	{"window", func(c SamplerConfig, rng *xrand.Source) (PersistentSampler, error) {
		return NewWindowReservoir(c.Window, c.Capacity, rng)
	}, false},
	{"timedecay", func(c SamplerConfig, rng *xrand.Source) (PersistentSampler, error) {
		return NewTimeDecayReservoir(c.Lambda, c.Capacity, rng)
	}, true},
	// T-TBS enforces its own target bound n ≤ 1/(1-e^{-λ}); in a ladder
	// tier 0 runs the steepest λ and so the tightest bound.
	{"ttbs", func(c SamplerConfig, rng *xrand.Source) (PersistentSampler, error) {
		return NewTTBSReservoir(c.Lambda, c.Capacity, rng)
	}, true},
	{"rtbs", func(c SamplerConfig, rng *xrand.Source) (PersistentSampler, error) {
		return NewRTBSReservoir(c.Lambda, c.Capacity, rng)
	}, true},
}

// Policies lists the registered sampler families in documentation order.
func Policies() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.name
	}
	return out
}

// ValidPolicy reports whether name is a registered sampler family.
func ValidPolicy(name string) bool {
	_, ok := lookupPolicy(name)
	return ok
}

func lookupPolicy(name string) (policy, bool) {
	for _, p := range policies {
		if p.name == name {
			return p, true
		}
	}
	return policy{}, false
}

// SamplerFactory validates c and returns a constructor for it. Callers
// keep the constructor so a restore can build a scratch instance of the
// same configuration; each call draws the sampler's randomness from rng.
func SamplerFactory(c SamplerConfig) (func(rng *xrand.Source) (PersistentSampler, error), error) {
	if c.Tiers < 0 {
		return nil, fmt.Errorf("tiers must be >= 0, got %d", c.Tiers)
	}
	if c.Slots() > MaxSlots {
		return nil, fmt.Errorf("config claims more than %d reservoir slots", MaxSlots)
	}
	p, known := lookupPolicy(c.Policy)
	if c.Tiers <= 1 {
		if !known {
			return nil, fmt.Errorf("unknown policy %q", c.Policy)
		}
		return func(rng *xrand.Source) (PersistentSampler, error) { return p.build(c, rng) }, nil
	}
	ratio := c.TierRatio
	if ratio == 0 {
		ratio = DefaultTierRatio
	}
	if !(ratio > 1) {
		return nil, fmt.Errorf("tier_ratio must be > 1, got %v", ratio)
	}
	if !p.tiered {
		// Uniform policies have no λ to space tiers over.
		return nil, fmt.Errorf("policy %q does not support tiers", c.Policy)
	}
	return func(rng *xrand.Source) (PersistentSampler, error) {
		return NewTieredReservoir(c.Lambda, ratio, c.Tiers, rng,
			func(_ int, lambda float64, rng *xrand.Source) (PersistentSampler, error) {
				tier := c
				tier.Lambda = lambda
				return p.build(tier, rng)
			})
	}, nil
}
