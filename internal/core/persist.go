package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// Snapshot/restore support. Every sampler implements
// encoding.BinaryMarshaler and encoding.BinaryUnmarshaler, serializing its
// complete state — reservoir contents, counters, policy parameters and the
// random generator — so a stream processor can checkpoint mid-stream and,
// after a restart, continue *identically* to an uninterrupted run. The
// resume-identical property is what the tests assert.
//
// The wire format is a gob encoding of a state struct prefixed with a
// one-byte kind tag, so a snapshot restored into the wrong sampler type
// fails loudly instead of silently misbehaving. Each family declares its
// persisted fields once: the sampler holds its state struct as its st
// field and runs on it directly, so the snapshot is that struct as it
// stands. encodeState and decodeState are the one envelope every family
// goes through; a family adds only the check of a decoded state and, where
// it keeps derived fields beside st, their rebuild. TieredReservoir
// persists its tiers' own snapshots instead.

const (
	kindBiased byte = 1 + iota
	kindVariable
	kindUnbiased
	// kindSkip was Algorithm X's tag. The family is retired (Algorithm Z
	// draws the same sample); the tag stays reserved and is never reused,
	// so the tags after it, and every snapshot carrying them, keep their
	// values.
	kindSkip
	kindWindow
	kindTimeDecay
	kindZ
	kindTiered
	kindTTBS
	kindRTBS
)

func marshalState(kind byte, state any) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte(kind)
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		return nil, fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

func unmarshalState(kind byte, data []byte, state any) error {
	if len(data) == 0 {
		return fmt.Errorf("core: empty snapshot")
	}
	if data[0] != kind {
		return fmt.Errorf("core: snapshot kind %d does not match sampler kind %d", data[0], kind)
	}
	if err := gob.NewDecoder(bytes.NewReader(data[1:])).Decode(state); err != nil {
		return fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return nil
}

// samplerState is what a pointer to a family's state struct S provides to
// the envelope.
type samplerState[S any] interface {
	*S
	// rngField is the state's RNG field, which carries the generator only
	// inside a snapshot.
	rngField() *[]byte
	// check refuses a decoded state before anything is installed.
	check() error
}

// encodeState writes a snapshot of kind: a copy of st whose RNG field
// carries rng's state.
func encodeState[S any, P samplerState[S]](kind byte, st S, rng *xrand.Source) ([]byte, error) {
	b, err := rng.MarshalBinary()
	if err != nil {
		return nil, err
	}
	*P(&st).rngField() = b
	return marshalState(kind, &st)
}

// decodeState reads a snapshot of kind and, only once it has decoded and
// passed the family's check, installs it as *st with the generator it
// carries as *rng, and counts the mutation in *ver.
func decodeState[S any, P samplerState[S]](kind byte, data []byte, st *S, rng **xrand.Source, ver *uint64) error {
	var next S
	if err := unmarshalState(kind, data, &next); err != nil {
		return err
	}
	if err := P(&next).check(); err != nil {
		return err
	}
	r := xrand.New(0)
	field := P(&next).rngField()
	if err := r.UnmarshalBinary(*field); err != nil {
		return err
	}
	*field = nil
	*st, *rng = next, r
	*ver++
	return nil
}

// Restore loads snapshot into s, a scratch sampler freshly built from a
// stream's configuration, and refuses a snapshot that runs another
// capacity, λ or window than that configuration (the kind tag alone lets
// any sampler of the family through). The daemon and multi.LoadFrom
// restore only through it.
func Restore(s PersistentSampler, snapshot []byte) error {
	want := shapeOf(s)
	if err := s.UnmarshalBinary(snapshot); err != nil {
		return fmt.Errorf("restoring snapshot: %w", err)
	}
	if got := shapeOf(s); got != want {
		return fmt.Errorf("snapshot runs %+v, the stream is configured for %+v", got, want)
	}
	return nil
}

// samplerShape is the part of a stream's configuration a sampler reports.
type samplerShape struct {
	Capacity int
	Lambda   float64
	Window   uint64
}

func shapeOf(s Sampler) samplerShape {
	sh := samplerShape{Capacity: s.Capacity()}
	if l, ok := s.(interface{ Lambda() float64 }); ok {
		sh.Lambda = l.Lambda()
	}
	if w, ok := s.(interface{ Window() uint64 }); ok {
		sh.Window = w.Window()
	}
	return sh
}

// checkFill refuses a reservoir holding more points than its capacity.
func checkFill(n, capacity int) error {
	if capacity <= 0 || n > capacity {
		return fmt.Errorf("core: corrupt snapshot: %d points in capacity %d", n, capacity)
	}
	return nil
}

func (s *biasedState) rngField() *[]byte { return &s.RNG }
func (s *biasedState) check() error      { return checkFill(len(s.Pts), s.Capacity) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (b *BiasedReservoir) MarshalBinary() ([]byte, error) {
	return encodeState(kindBiased, b.st, b.rng)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *BiasedReservoir) UnmarshalBinary(data []byte) error {
	return decodeState(kindBiased, data, &b.st, &b.rng, &b.ver)
}

func (s *variableState) rngField() *[]byte { return &s.RNG }

// check holds a decoded state to the constructor's rule 0 < n_max·λ <= 1.
func (s *variableState) check() error {
	if !(s.Lambda > 0) || float64(s.Nmax)*s.Lambda > 1+1e-12 {
		return fmt.Errorf("core: corrupt snapshot: budget %d at λ=%v", s.Nmax, s.Lambda)
	}
	return checkFill(len(s.Pts), s.Nmax)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (v *VariableReservoir) MarshalBinary() ([]byte, error) {
	return encodeState(kindVariable, v.st, v.rng)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The points are
// re-homed in a slice with exactly n_max capacity when the snapshot's
// budget is the receiver's own, so the restored sampler keeps the
// never-reallocate budget invariant. A snapshot's n_max alone never sizes
// an allocation: restored into a receiver of another budget, the points
// keep an exact-length slice that admit grows toward n_max on demand.
func (v *VariableReservoir) UnmarshalBinary(data []byte) error {
	budget := v.st.Nmax
	if err := decodeState(kindVariable, data, &v.st, &v.rng, &v.ver); err != nil {
		return err
	}
	if v.st.Nmax != budget {
		budget = len(v.st.Pts)
	}
	v.st.Pts = append(make([]stream.Point, 0, budget), v.st.Pts...)
	return nil
}

func (s *unbiasedState) rngField() *[]byte { return &s.RNG }
func (s *unbiasedState) check() error      { return checkFill(len(s.Pts), s.Capacity) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (u *UnbiasedReservoir) MarshalBinary() ([]byte, error) {
	return encodeState(kindUnbiased, u.st, u.rng)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (u *UnbiasedReservoir) UnmarshalBinary(data []byte) error {
	return decodeState(kindUnbiased, data, &u.st, &u.rng, &u.ver)
}

func (s *zState) rngField() *[]byte { return &s.RNG }
func (s *zState) check() error      { return checkFill(len(s.Pts), s.Capacity) }

// MarshalBinary implements encoding.BinaryMarshaler.
func (z *ZReservoir) MarshalBinary() ([]byte, error) {
	return encodeState(kindZ, z.st, z.rng)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (z *ZReservoir) UnmarshalBinary(data []byte) error {
	return decodeState(kindZ, data, &z.st, &z.rng, &z.ver)
}

func (s *windowState) rngField() *[]byte { return &s.RNG }

func (s *windowState) check() error {
	if s.Window == 0 || s.Capacity <= 0 || len(s.Slots) != s.Capacity {
		return fmt.Errorf("core: corrupt snapshot: window %d capacity %d slots %d", s.Window, s.Capacity, len(s.Slots))
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (w *WindowReservoir) MarshalBinary() ([]byte, error) {
	return encodeState(kindWindow, w.st, w.rng)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (w *WindowReservoir) UnmarshalBinary(data []byte) error {
	return decodeState(kindWindow, data, &w.st, &w.rng, &w.ver)
}

type tieredState struct {
	Ratio     float64
	Lambdas   []float64
	Compacted []uint64
	Drops     []uint64
	Tiers     [][]byte
}

// MarshalBinary implements encoding.BinaryMarshaler: the ladder shape plus
// each tier's own complete snapshot (including its RNG), so a restored
// ladder resumes identically on every tier.
func (tr *TieredReservoir) MarshalBinary() ([]byte, error) {
	st := tieredState{
		Ratio:     tr.ratio,
		Lambdas:   tr.lambdas,
		Compacted: make([]uint64, len(tr.tiers)),
		Drops:     make([]uint64, len(tr.tiers)),
		Tiers:     make([][]byte, len(tr.tiers)),
	}
	for i, t := range tr.tiers {
		blob, err := t.s.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: marshaling tier %d: %w", i, err)
		}
		st.Tiers[i] = blob
		st.Compacted[i] = t.compacted
		st.Drops[i] = t.drops
	}
	return marshalState(kindTiered, st)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// have been constructed with the same tier count and λ ladder the snapshot
// was taken with; each tier blob is restored into the corresponding
// factory-built tier, which enforces its own kind tag.
func (tr *TieredReservoir) UnmarshalBinary(data []byte) error {
	var st tieredState
	if err := unmarshalState(kindTiered, data, &st); err != nil {
		return err
	}
	if len(st.Tiers) != len(tr.tiers) {
		return fmt.Errorf("core: snapshot has %d tiers, sampler has %d", len(st.Tiers), len(tr.tiers))
	}
	if len(st.Lambdas) != len(tr.lambdas) || len(st.Compacted) != len(tr.tiers) || len(st.Drops) != len(tr.tiers) {
		return fmt.Errorf("core: corrupt tiered snapshot: mismatched section lengths")
	}
	for i, l := range st.Lambdas {
		if math.Abs(l-tr.lambdas[i]) > 1e-12*tr.lambdas[i] {
			return fmt.Errorf("core: snapshot tier %d has λ=%v, sampler has λ=%v", i, l, tr.lambdas[i])
		}
	}
	for i, blob := range st.Tiers {
		if err := tr.tiers[i].s.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("core: restoring tier %d: %w", i, err)
		}
		tr.tiers[i].compacted = st.Compacted[i]
		tr.tiers[i].drops = st.Drops[i]
	}
	tr.ratio = st.Ratio
	tr.mutated()
	return nil
}

func (s *ttbsState) rngField() *[]byte { return &s.RNG }

func (s *ttbsState) check() error {
	if !(s.Lambda > 0) || s.Target <= 0 {
		return fmt.Errorf("core: corrupt T-TBS snapshot: λ=%v target=%d", s.Lambda, s.Target)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *TTBSReservoir) MarshalBinary() ([]byte, error) {
	return encodeState(kindTTBS, s.st, s.rng)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. q, p and the
// expiry heap are derived from the restored state.
func (s *TTBSReservoir) UnmarshalBinary(data []byte) error {
	if err := decodeState(kindTTBS, data, &s.st, &s.rng, &s.ver); err != nil {
		return err
	}
	s.derive()
	return nil
}

func (s *rtbsState) rngField() *[]byte { return &s.RNG }

func (s *rtbsState) check() error {
	want := s.NFull
	if s.HasPartial {
		want++
	}
	if !(s.Lambda > 0) || s.Capacity <= 0 || s.NFull < 0 ||
		len(s.Items) != want || len(s.Items) > s.Capacity ||
		s.Frac < 0 || s.Frac >= 1 {
		return fmt.Errorf("core: corrupt R-TBS snapshot: capacity=%d nFull=%d items=%d frac=%v",
			s.Capacity, s.NFull, len(s.Items), s.Frac)
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *RTBSReservoir) MarshalBinary() ([]byte, error) {
	return encodeState(kindRTBS, s.st, s.rng)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *RTBSReservoir) UnmarshalBinary(data []byte) error {
	return decodeState(kindRTBS, data, &s.st, &s.rng, &s.ver)
}

func (s *timeDecayState) rngField() *[]byte { return &s.RNG }

func (s *timeDecayState) check() error {
	return checkFill(len(s.Items), s.Capacity)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (d *TimeDecayReservoir) MarshalBinary() ([]byte, error) {
	return encodeState(kindTimeDecay, d.st, d.rng)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The expiry heap
// and index map are rebuilt from the restored items.
func (d *TimeDecayReservoir) UnmarshalBinary(data []byte) error {
	if err := decodeState(kindTimeDecay, data, &d.st, &d.rng, &d.ver); err != nil {
		return err
	}
	d.rebuild()
	return nil
}
