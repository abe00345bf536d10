package multi

import (
	"encoding/gob"
	"fmt"
	"io"

	"biasedres/internal/core"
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
	list := m.list()
	state := fleetState{Budget: m.budget, Lambda: m.lambda, Streams: make(map[string]streamState, len(list))}
	for _, ne := range list {
		name, e := ne.name, ne.e
		st := streamState{Share: e.share, Kind: string(e.kind)}
		var err error
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
		if err := m.register(name, kind, st.Share, cfg, &st); err != nil {
			return nil, err
		}
	}
	return m, nil
}
