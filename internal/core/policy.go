package core

import (
	"fmt"

	"biasedres/internal/xrand"
)

// SamplerConfig names a sampler policy and its parameters. It is the one
// description every deployment builds samplers from: the server's create
// request and durable stream meta carry the same fields, and multi.Manager
// fills in its own λ and per-stream share.
type SamplerConfig struct {
	// Policy is one of Policies().
	Policy string
	// Lambda is the bias rate (biased policies).
	Lambda float64
	// Capacity is the reservoir budget; 0 derives ⌊1/λ⌋ for "biased".
	Capacity int
	// Window is the window length for the "window" policy.
	Window uint64
	// Tiers, when > 1, builds a TieredReservoir: tier i runs the policy at
	// λ/TierRatio^i with the same Capacity.
	Tiers int
	// TierRatio is the λ spacing between tiers (0 = DefaultTierRatio).
	TierRatio float64
}

// DefaultTierRatio is the λ spacing between consecutive tiers when a
// config leaves TierRatio unset. Consecutive horizons then differ by 8×, so
// four tiers span three orders of magnitude while the worst-case horizon
// overshoot (the variance cost of routing, docs/THEORY.md §10) stays
// bounded by one ratio step.
const DefaultTierRatio = 8

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
