package multi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"biasedres/internal/core"
	"biasedres/internal/durable"
)

// Fleet-level checkpointing: SaveTo writes each stream as the one
// persisted record of a stream, a durable checkpoint, behind a header
// holding the manager's budget and λ; LoadFrom registers each record
// again. Any one record installs on a daemon as is (POST
// /streams/{name}/transfer). Fleet file:
//
//	[8]  magic "BRESFLT1"
//	[8]  budget, [8] λ (IEEE 754 bits), [8] stream count n (little-endian)
//	then n records in name order, each what durable.EncodeCheckpoint
//	writes: name, core.SamplerConfig, Next = processed count, Dim 0 and
//	the sampler snapshot.

var fleetMagic = [8]byte{'B', 'R', 'E', 'S', 'F', 'L', 'T', '1'}

// errGobFleet refuses a fleet file in the gob form SaveTo wrote before
// BRESFLT1, which starts with gob's description of its fleetState type.
var errGobFleet = errors.New("multi: this is a gob fleet file (fleetState), a form this build no longer reads; " +
	"convert it to BRESFLT1 with TestConvertGobFleet, as docs/OPERATIONS.md §5 describes")

// appendFleetHeader appends the header of a fleet of n streams to buf.
func appendFleetHeader(buf []byte, budget int, lambda float64, n int) []byte {
	buf = append(buf, fleetMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(budget))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lambda))
	return binary.LittleEndian.AppendUint64(buf, uint64(n))
}

// SaveTo writes a checkpoint of the manager and every registered stream.
// Concurrent Adds are safe during the call; each stream is snapshotted
// under its own lock, so the checkpoint is per-stream consistent.
func (m *Manager) SaveTo(w io.Writer) error {
	list := m.reg.List()
	if _, err := w.Write(appendFleetHeader(nil, m.budget, m.lambda, len(list))); err != nil {
		return fmt.Errorf("multi: writing fleet header: %w", err)
	}
	for _, e := range list {
		ck := durable.Checkpoint{Name: e.name, Config: e.cfg}
		var err error
		e.sm.View(func(s core.Sampler) {
			ck.Next = s.Processed()
			ck.Snapshot, err = s.(core.PersistentSampler).MarshalBinary()
		})
		var rec []byte
		if err == nil {
			rec, err = durable.EncodeCheckpoint(ck)
		}
		if err == nil {
			_, err = w.Write(rec)
		}
		if err != nil {
			return fmt.Errorf("multi: saving %q: %w", e.name, err)
		}
	}
	return nil
}

// LoadFrom reconstructs a manager from a SaveTo checkpoint, registering
// each record as RegisterKind and RegisterTiered do, so a record the
// manager's budget, λ or share rules would refuse is refused. seed drives
// the random sources of any streams registered *after* the restore;
// restored streams resume with their checkpointed generator state.
func LoadFrom(r io.Reader, seed uint64) (*Manager, error) {
	head := make([]byte, 32)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("multi: reading fleet header: %w", err)
	}
	if [8]byte(head[:8]) != fleetMagic {
		if bytes.Contains(head, []byte("fleetState")) {
			return nil, errGobFleet
		}
		return nil, fmt.Errorf("multi: bad fleet magic %q", head[:8])
	}
	m, err := NewManager(int(binary.LittleEndian.Uint64(head[8:])),
		math.Float64frombits(binary.LittleEndian.Uint64(head[16:])), seed)
	if err != nil {
		return nil, fmt.Errorf("multi: restoring manager: %w", err)
	}
	for n := binary.LittleEndian.Uint64(head[24:]); n > 0; n-- {
		ck, err := durable.ReadCheckpoint(r)
		if err != nil {
			return nil, fmt.Errorf("multi: reading fleet record: %w", err)
		}
		if err := m.register(ck.Name, ck.Config, &ck); err != nil {
			return nil, err
		}
	}
	return m, nil
}
