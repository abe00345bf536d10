package durable

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"biasedres/internal/core"
	"biasedres/internal/wire"
)

// On-disk encodings. Both files are self-verifying:
//
// Checkpoint file:
//
//	[8]  magic "BRESCKP1" (format version baked into the last byte)
//	[4]  CRC32-Castagnoli of the payload
//	[8]  payload length (little-endian)
//	[n]  payload: gob(checkpointPayload)
//
// Journal file:
//
//	[8]  magic "BRESJRN2"
//	[8]  base checkpoint sequence (little-endian)
//	then zero or more records, each:
//	[4]  payload length (little-endian)
//	[4]  CRC32-Castagnoli of the payload
//	[n]  payload: one applied batch
//
// A record payload is one applied batch in the batch layout of
// internal/wire, the layout a wire frame carries after its stream name.
// The store frames it and checks its length and CRC; the batch decoder
// checks every length in it before anything is allocated.
//
// Journals of the previous version, magic "BRESJRN1", held gob records.
// One with only its header, which is what a clean shutdown leaves, reads
// as empty; one with anything after its header is refused
// (errLegacyJournal), never replayed, quarantined or rewritten.
//
// A torn tail — the normal state after a crash mid-append — fails the
// length or CRC check of the last record and replay stops there; the
// valid prefix is still used. Anything that fails *before* the tail is
// corruption, and the file is quarantined rather than trusted.

var (
	ckptMagic      = [8]byte{'B', 'R', 'E', 'S', 'C', 'K', 'P', '1'}
	journalMagic   = [8]byte{'B', 'R', 'E', 'S', 'J', 'R', 'N', '2'}
	journalMagicV1 = [8]byte{'B', 'R', 'E', 'S', 'J', 'R', 'N', '1'}
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks a file that failed structural validation (bad magic,
// bad CRC, truncation). Recovery quarantines the file instead of failing.
var errCorrupt = errors.New("durable: corrupt file")

// IsCorrupt reports whether err marks a corrupt checkpoint or journal.
func IsCorrupt(err error) bool { return errors.Is(err, errCorrupt) }

// ErrNotCheckpoint marks bytes of checkpoint length that do not open with
// the checkpoint magic: some other body, not a damaged checkpoint.
var ErrNotCheckpoint = errors.New("not a BRESCKP1 checkpoint")

// errLegacyJournal marks a BRESJRN1 journal with bytes after its header:
// records this version cannot replay. Recovery leaves such a stream's
// files as they are instead of quarantining them.
var errLegacyJournal = errors.New("durable: BRESJRN1 journal with records")

// Checkpoint is one durable cut of a stream, and its one persisted record
// (a .ckpt file, a transfer body, a stream of a fleet file): its name and
// configuration, ingest bookkeeping and the sampler's binary snapshot,
// tagged with the sequence that orders it against the stream's journals.
type Checkpoint struct {
	Seq    uint64
	Name   string
	Config core.SamplerConfig
	// Next is the last assigned arrival index (the server's `next`
	// counter), which can run ahead of the sampler's processed count
	// while batches sit in the async ingest queue.
	Next uint64
	// Dim is the stream's committed point dimensionality (0 = none yet).
	Dim int
	// Snapshot is the sampler's encoding.BinaryMarshaler output.
	Snapshot []byte
}

// gobCheckpoint runs code, a gob Encode or Decode, on ck's payload form
// and reads it back into ck. The payload keeps the first format's fields
// and type names (gob writes a struct's bare type name, hence the local
// StreamMeta), so checkpoint bytes have not changed since BRESCKP1. A
// payload without a policy predates policies: a variable reservoir.
func gobCheckpoint(ck *Checkpoint, code func(any) error) error {
	type StreamMeta struct {
		Name      string
		Policy    string
		Lambda    float64
		Capacity  int
		Window    uint64
		Tiers     int
		TierRatio float64
	}
	type checkpointPayload struct {
		Seq      uint64
		Meta     StreamMeta
		Next     uint64
		Dim      int
		Snapshot []byte
	}
	c := ck.Config
	p := checkpointPayload{Seq: ck.Seq, Next: ck.Next, Dim: ck.Dim, Snapshot: ck.Snapshot,
		Meta: StreamMeta{ck.Name, c.Policy, c.Lambda, c.Capacity, c.Window, c.Tiers, c.TierRatio}}
	if err := code(&p); err != nil {
		return err
	}
	m := p.Meta
	*ck = Checkpoint{Seq: p.Seq, Name: m.Name, Next: p.Next, Dim: p.Dim, Snapshot: p.Snapshot,
		Config: core.SamplerConfig{Policy: cmp.Or(m.Policy, "variable"), Lambda: m.Lambda,
			Capacity: m.Capacity, Window: m.Window, Tiers: m.Tiers, TierRatio: m.TierRatio}}
	return nil
}

// EncodeCheckpoint renders ck into its file bytes. These bytes are the
// one persisted form of a stream: what a .ckpt file holds, what
// GET /streams/{name}/transfer ships to another node and what a fleet
// file holds per stream.
func EncodeCheckpoint(ck Checkpoint) ([]byte, error) {
	var payload bytes.Buffer
	if err := gobCheckpoint(&ck, gob.NewEncoder(&payload).Encode); err != nil {
		return nil, fmt.Errorf("durable: encoding checkpoint: %w", err)
	}
	buf := make([]byte, 0, 20+payload.Len())
	buf = append(buf, ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload.Bytes(), castagnoli))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	return buf, nil
}

// DecodeCheckpoint parses and verifies checkpoint file bytes, read from
// disk or received over the network. Structural failures (bad magic, CRC
// mismatch, truncation, an undecodable payload) return errCorrupt-wrapped
// errors; a bad magic wraps ErrNotCheckpoint too.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	if len(data) < 20 {
		return Checkpoint{}, fmt.Errorf("%w: checkpoint header truncated at %d bytes", errCorrupt, len(data))
	}
	if !bytes.Equal(data[:8], ckptMagic[:]) {
		return Checkpoint{}, fmt.Errorf("%w: %w: bad checkpoint magic %q", errCorrupt, ErrNotCheckpoint, data[:8])
	}
	sum := binary.LittleEndian.Uint32(data[8:12])
	n := binary.LittleEndian.Uint64(data[12:20])
	if uint64(len(data)-20) != n {
		return Checkpoint{}, fmt.Errorf("%w: checkpoint payload is %d bytes, header says %d",
			errCorrupt, len(data)-20, n)
	}
	payload := data[20:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Checkpoint{}, fmt.Errorf("%w: checkpoint checksum mismatch", errCorrupt)
	}
	var ck Checkpoint
	if err := gobCheckpoint(&ck, gob.NewDecoder(bytes.NewReader(payload)).Decode); err != nil {
		return Checkpoint{}, fmt.Errorf("%w: decoding checkpoint payload: %v", errCorrupt, err)
	}
	return ck, nil
}

// ReadCheckpoint reads and decodes one checkpoint record off r, as a
// fleet file holds them back to back. The payload grows only as its bytes
// arrive, so a lying length field costs no more than r delivers.
func ReadCheckpoint(r io.Reader) (Checkpoint, error) {
	head := make([]byte, 20)
	if _, err := io.ReadFull(r, head); err != nil {
		return Checkpoint{}, fmt.Errorf("%w: checkpoint header truncated: %v", errCorrupt, err)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(binary.LittleEndian.Uint64(head[12:20]))))
	if err != nil {
		return Checkpoint{}, err
	}
	return DecodeCheckpoint(append(head, payload...))
}

// encodeJournalHeader renders the journal file header for base seq.
func encodeJournalHeader(seq uint64) []byte {
	buf := make([]byte, 0, 16)
	buf = append(buf, journalMagic[:]...)
	return binary.LittleEndian.AppendUint64(buf, seq)
}

// appendRecord appends one v2 journal record frame holding batch f to
// buf and returns the extended buffer. A batch whose payload would exceed
// maxRecordBytes is refused: replay would classify it as corrupt.
func appendRecord(buf []byte, f *wire.Frame) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, 8)...) // length and CRC, filled in below
	buf, err := wire.AppendBatch(buf, f)
	if err != nil {
		return buf[:start], fmt.Errorf("durable: %w", err)
	}
	if size := len(buf) - start - 8; size > maxRecordBytes {
		return buf[:start], fmt.Errorf("durable: journal record of %d points is %d bytes, over the %d-byte limit",
			f.Count, size, maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-8))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(buf[start+8:], castagnoli))
	return buf, nil
}

// journalScan is the result of reading one journal file: the base
// sequence, every intact record in order, and how the file ended.
// tornTail marks a cleanly truncated final frame — the normal disk state
// after a crash mid-append, replayable up to the tear. corrupt marks
// content that cannot be explained by truncation (CRC mismatch, garbage
// length, undecodable payload); the valid prefix is still returned but
// the file deserves quarantine.
type journalScan struct {
	base     uint64
	records  []*wire.Frame
	tornTail bool
	corrupt  bool
}

// decodeJournal reads a journal stream. A header failure is corruption
// (the whole file is untrustworthy); record failures end the scan with the
// valid prefix, classified as torn or corrupt. A BRESJRN1 journal reads
// as empty when it holds only its header, and fails with
// errLegacyJournal otherwise.
func decodeJournal(r io.Reader) (journalScan, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 16)
	if _, err := io.ReadFull(br, head); err != nil {
		return journalScan{}, fmt.Errorf("%w: journal header truncated: %v", errCorrupt, err)
	}
	scan := journalScan{base: binary.LittleEndian.Uint64(head[8:16])}
	switch [8]byte(head[:8]) {
	case journalMagic:
	case journalMagicV1:
		if _, err := br.Peek(1); err == io.EOF {
			return scan, nil
		}
		return journalScan{}, errLegacyJournal
	default:
		return journalScan{}, fmt.Errorf("%w: bad journal magic %q", errCorrupt, head[:8])
	}
	frame := make([]byte, 8)
	var payload []byte
	for {
		if _, err := io.ReadFull(br, frame); err != nil {
			if err != io.EOF {
				scan.tornTail = true // partial frame header
			}
			return scan, nil
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n > maxRecordBytes {
			scan.corrupt = true // length field is garbage, not a truncation
			return scan, nil
		}
		var err error
		if payload, err = readPayload(br, payload, int(n)); err != nil {
			scan.tornTail = true
			return scan, nil
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			scan.corrupt = true
			return scan, nil
		}
		rec := new(wire.Frame)
		if err := wire.DecodeBatch(payload, rec); err != nil {
			scan.corrupt = true
			return scan, nil
		}
		scan.records = append(scan.records, rec)
	}
}

// payloadChunk is how far readPayload grows its buffer ahead of the bytes
// actually read.
const payloadChunk = 1 << 20

// readPayload reads the n-byte payload of one record into buf, reusing its
// storage. It grows the buffer only as bytes arrive, so a length field
// claiming far more than the file holds costs at most one chunk past the
// file's end, not the claimed size.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), payloadChunk)
		buf = slices.Grow(buf, k)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// maxRecordBytes bounds a single journal record frame; anything larger is
// treated as a corrupt length field rather than allocated.
const maxRecordBytes = 1 << 30
