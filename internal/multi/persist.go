package multi

import (
	"encoding/gob"
	"fmt"
	"io"

	"biasedres/internal/core"
	"biasedres/internal/xrand"
)

// Fleet-level checkpointing: SaveTo serializes every registered stream's
// reservoir (each via its own resume-identical binary snapshot) together
// with the manager's budget accounting; LoadFrom reconstructs the whole
// fleet. A collector can thus restart without losing any stream's sample.

// fleetState is the gob wire form of a manager checkpoint.
type fleetState struct {
	Budget  int
	Lambda  float64
	Streams map[string]streamState
}

type streamState struct {
	Share    int
	Snapshot []byte
	// Tiers/Ratio describe a multi-horizon ladder (RegisterTiered); zero
	// means a plain variable reservoir — gob leaves them zero when decoding
	// checkpoints written before tiers existed.
	Tiers int
	Ratio float64
	// Kind names the sampler family (RegisterKind); gob leaves it empty
	// when decoding checkpoints written before kinds existed, which decodes
	// as the historical default KindVariable.
	Kind string
}

// SaveTo writes a checkpoint of the manager and every registered stream.
// Concurrent Adds are safe during the call; each stream is snapshotted
// under its own lock, so the checkpoint is per-stream consistent.
func (m *Manager) SaveTo(w io.Writer) error {
	m.mu.RLock()
	names := make([]string, 0, len(m.streams))
	for name := range m.streams {
		names = append(names, name)
	}
	state := fleetState{
		Budget:  m.budget,
		Lambda:  m.lambda,
		Streams: make(map[string]streamState, len(names)),
	}
	m.mu.RUnlock()
	for _, name := range names {
		e, err := m.lookup(name)
		if err != nil {
			continue // unregistered mid-save
		}
		st := streamState{Share: e.share, Kind: string(e.kind)}
		e.sm.View(func(s core.Sampler) {
			st.Snapshot, err = s.(core.PersistentSampler).MarshalBinary()
			if tr := e.sm.Tiered(); tr != nil {
				st.Tiers, st.Ratio = tr.NumTiers(), tr.Ratio()
			}
		})
		if err != nil {
			return fmt.Errorf("multi: snapshotting %q: %w", name, err)
		}
		state.Streams[name] = st
	}
	if err := gob.NewEncoder(w).Encode(state); err != nil {
		return fmt.Errorf("multi: encoding fleet checkpoint: %w", err)
	}
	return nil
}

// LoadFrom reconstructs a manager from a SaveTo checkpoint. seed drives
// the random sources of any streams registered *after* the restore;
// restored streams resume with their checkpointed generator state.
func LoadFrom(r io.Reader, seed uint64) (*Manager, error) {
	var state fleetState
	if err := gob.NewDecoder(r).Decode(&state); err != nil {
		return nil, fmt.Errorf("multi: decoding fleet checkpoint: %w", err)
	}
	m, err := NewManager(state.Budget, state.Lambda, seed)
	if err != nil {
		return nil, fmt.Errorf("multi: restoring manager: %w", err)
	}
	for name, st := range state.Streams {
		if st.Share <= 0 {
			return nil, fmt.Errorf("multi: stream %q has share %d in checkpoint", name, st.Share)
		}
		if m.used+st.Share > m.budget {
			return nil, fmt.Errorf("multi: checkpoint overcommits budget at stream %q", name)
		}
		// Checkpoints written before sampler kinds existed decode with an
		// empty Kind: the historical default, a variable reservoir.
		kind := Kind(st.Kind)
		if kind == "" {
			kind = KindVariable
		}
		if !knownKind(kind) {
			return nil, fmt.Errorf("multi: stream %q has unknown sampler kind %q in checkpoint", name, st.Kind)
		}
		cfg := core.SamplerConfig{Policy: string(kind), Lambda: state.Lambda, Capacity: st.Share}
		if st.Tiers > 1 {
			if kind != KindVariable {
				return nil, fmt.Errorf("multi: stream %q is tiered but has kind %q in checkpoint", name, kind)
			}
			// st.Share stores the whole ladder's charge; each tier holds an
			// equal slice of it.
			if st.Share%st.Tiers != 0 {
				return nil, fmt.Errorf("multi: stream %q share %d is not divisible by its %d tiers",
					name, st.Share, st.Tiers)
			}
			cfg.Capacity, cfg.Tiers, cfg.TierRatio = st.Share/st.Tiers, st.Tiers, st.Ratio
		}
		fresh, err := core.SamplerFactory(cfg)
		if err != nil {
			return nil, fmt.Errorf("multi: rebuilding %q: %w", name, err)
		}
		sampler, err := fresh(xrand.New(0))
		if err != nil {
			return nil, fmt.Errorf("multi: rebuilding %q: %w", name, err)
		}
		if err := sampler.UnmarshalBinary(st.Snapshot); err != nil {
			return nil, fmt.Errorf("multi: restoring %q: %w", name, err)
		}
		m.streams[name] = &entry{sm: core.NewSynchronized(sampler), kind: kind, share: st.Share}
		m.used += st.Share
	}
	return m, nil
}
