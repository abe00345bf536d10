package durable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"biasedres/internal/stream"
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
//	[8]  magic "BRESJRN2" ("BRESJRN1" for journals written before v2)
//	[8]  base checkpoint sequence (little-endian)
//	then zero or more records, each:
//	[4]  payload length (little-endian)
//	[4]  CRC32-Castagnoli of the payload
//	[n]  payload: one applied batch of ops
//
// A v2 record payload is a fixed little-endian columnar layout, one
// column per Op field, each present only when the batch needs it:
//
//	[8]        count of ops
//	[4]        dim: values per op (0 when the ragged flag is set)
//	[1]        flags: 1 consecutive indices, 2 weights, 4 timestamps, 8 ragged
//	[8]        first index                      if consecutive
//	[8×count]  indices                          otherwise
//	[8×count]  labels (int64)
//	[8×count]  weights (float64)                if some weight is not 1
//	[8×count]  timestamps (float64)             if some op has HasTS or TS≠0
//	[count]    has-ts (0 or 1)                  with the timestamps
//	[4×count]  values per op                    if dims differ (ragged)
//	[8×Σdim]   values (float64), op after op
//
// Every length in a v2 payload is checked against the payload's own size
// before anything is allocated. A v1 record payload is gob(Record); v1
// journals are still replayed (the magic selects the decoder per file),
// but nothing writes them any more.
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

// StreamMeta is the stream configuration a checkpoint carries, enough to
// rebuild the sampler factory on recovery. It mirrors the server's create
// request.
type StreamMeta struct {
	Name     string
	Policy   string
	Lambda   float64
	Capacity int
	Window   uint64
	// Tiers and TierRatio describe a multi-horizon ladder (0/absent for
	// single-reservoir streams — gob leaves them zero when decoding
	// checkpoints written before tiers existed, which recovery reads as
	// untiered).
	Tiers     int
	TierRatio float64
}

// Checkpoint is one durable cut of a stream: its configuration, ingest
// bookkeeping and the sampler's binary snapshot, tagged with the sequence
// number that orders it against the stream's journals.
type Checkpoint struct {
	Seq  uint64
	Meta StreamMeta
	// Next is the last assigned arrival index (the server's `next`
	// counter), which can run ahead of the sampler's processed count
	// while batches sit in the async ingest queue.
	Next uint64
	// Dim is the stream's committed point dimensionality (0 = none yet).
	Dim int
	// Snapshot is the sampler's encoding.BinaryMarshaler output.
	Snapshot []byte
}

// checkpointPayload is the gob wire form of a Checkpoint.
type checkpointPayload struct {
	Seq      uint64
	Meta     StreamMeta
	Next     uint64
	Dim      int
	Snapshot []byte
}

// Op is one journaled ingest operation: the point as applied, plus the
// explicit timestamp for time-decay streams (HasTS distinguishes "AddAt
// ts" from "Add with clock+1").
type Op struct {
	P     stream.Point
	TS    float64
	HasTS bool
}

// Record is one journal entry: the ops of one applied ingest batch.
type Record struct {
	Ops []Op
}

// EncodeCheckpoint renders ck into its file bytes. These bytes are the
// one persisted form of a stream: what a .ckpt file holds and what
// GET /streams/{name}/transfer ships to another node.
func EncodeCheckpoint(ck Checkpoint) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(checkpointPayload(ck)); err != nil {
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
// errors.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	if len(data) < 20 {
		return Checkpoint{}, fmt.Errorf("%w: checkpoint header truncated at %d bytes", errCorrupt, len(data))
	}
	if !bytes.Equal(data[:8], ckptMagic[:]) {
		return Checkpoint{}, fmt.Errorf("%w: bad checkpoint magic %q", errCorrupt, data[:8])
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
	var p checkpointPayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return Checkpoint{}, fmt.Errorf("%w: decoding checkpoint payload: %v", errCorrupt, err)
	}
	return Checkpoint(p), nil
}

// encodeJournalHeader renders the journal file header for base seq.
func encodeJournalHeader(seq uint64) []byte {
	buf := make([]byte, 0, 16)
	buf = append(buf, journalMagic[:]...)
	return binary.LittleEndian.AppendUint64(buf, seq)
}

// Record flag bits of the v2 payload header.
const (
	recSeqIndex   = 1 << iota // indices are first, first+1, …: one index stored
	recWeights                // weights column present
	recTimestamps             // timestamp and has-ts columns present
	recRagged                 // per-op value counts present; dim is 0
	recFlagsAll   = recSeqIndex | recWeights | recTimestamps | recRagged
)

// recHeaderBytes is the fixed prefix of a v2 payload: count, dim, flags.
const recHeaderBytes = 8 + 4 + 1

// appendRecord appends one v2 journal record frame holding ops to buf and
// returns the extended buffer. A batch whose payload would exceed
// maxRecordBytes is refused: replay would classify it as corrupt.
func appendRecord(buf []byte, ops []Op) ([]byte, error) {
	n := uint64(len(ops))
	var flags byte = recSeqIndex
	dim := 0
	if n > 0 {
		dim = len(ops[0].P.Values)
	}
	values := uint64(0)
	for i := range ops {
		op := &ops[i]
		if op.P.Index != ops[0].P.Index+uint64(i) {
			flags &^= recSeqIndex
		}
		if math.Float64bits(op.P.Weight) != math.Float64bits(1) {
			flags |= recWeights
		}
		if op.HasTS || math.Float64bits(op.TS) != 0 {
			flags |= recTimestamps
		}
		if len(op.P.Values) != dim {
			flags |= recRagged
		}
		values += uint64(len(op.P.Values))
	}
	size := recHeaderBytes + 8*n + 8*values // labels and values
	if flags&recSeqIndex != 0 {
		size += 8
	} else {
		size += 8 * n
	}
	if flags&recWeights != 0 {
		size += 8 * n
	}
	if flags&recTimestamps != 0 {
		size += 9 * n
	}
	if flags&recRagged != 0 {
		size += 4 * n
		dim = 0
	}
	if size > maxRecordBytes {
		return buf, fmt.Errorf("durable: journal record of %d ops is %d bytes, over the %d-byte limit",
			n, size, maxRecordBytes)
	}

	start := len(buf)
	buf = slices.Grow(buf, 8+int(size))
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(size))
	buf = le.AppendUint32(buf, 0) // CRC, filled in below
	buf = le.AppendUint64(buf, n)
	buf = le.AppendUint32(buf, uint32(dim))
	buf = append(buf, flags)
	if flags&recSeqIndex != 0 {
		var first uint64
		if n > 0 {
			first = ops[0].P.Index
		}
		buf = le.AppendUint64(buf, first)
	} else {
		for i := range ops {
			buf = le.AppendUint64(buf, ops[i].P.Index)
		}
	}
	for i := range ops {
		buf = le.AppendUint64(buf, uint64(int64(ops[i].P.Label)))
	}
	if flags&recWeights != 0 {
		for i := range ops {
			buf = le.AppendUint64(buf, math.Float64bits(ops[i].P.Weight))
		}
	}
	if flags&recTimestamps != 0 {
		for i := range ops {
			buf = le.AppendUint64(buf, math.Float64bits(ops[i].TS))
		}
		for i := range ops {
			var has byte
			if ops[i].HasTS {
				has = 1
			}
			buf = append(buf, has)
		}
	}
	if flags&recRagged != 0 {
		for i := range ops {
			buf = le.AppendUint32(buf, uint32(len(ops[i].P.Values)))
		}
	}
	for i := range ops {
		for _, v := range ops[i].P.Values {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	le.PutUint32(buf[start+4:], crc32.Checksum(buf[start+8:], castagnoli))
	return buf, nil
}

// errBadRecord reports a CRC-valid v2 payload whose layout does not add
// up; decodeJournal classifies it as corruption.
var errBadRecord = errors.New("durable: malformed journal record")

// recCursor walks a v2 payload column by column; a short read marks it
// bad and yields nil from then on.
type recCursor struct {
	p   []byte
	bad bool
}

func (c *recCursor) take(k uint64) []byte {
	if c.bad || uint64(len(c.p)) < k {
		c.bad = true
		return nil
	}
	b := c.p[:k]
	c.p = c.p[k:]
	return b
}

// decodeRecord parses one v2 payload. Every column length is checked
// against the bytes remaining before it is allocated, so a payload that
// claims more ops or values than it holds fails instead of allocating.
// The decoded ops own their memory; p may be reused afterwards. Values of
// one record share a backing array, as a decoded wire frame's do.
func decodeRecord(p []byte) (Record, error) {
	if len(p) < recHeaderBytes || len(p) > maxRecordBytes {
		return Record{}, errBadRecord
	}
	le := binary.LittleEndian
	n := le.Uint64(p)
	dim := uint64(le.Uint32(p[8:]))
	flags := p[12]
	c := recCursor{p: p[recHeaderBytes:]}
	// Labels alone take 8 bytes per op, so this bounds n (below 2^27)
	// before anything is allocated by it.
	if flags&^recFlagsAll != 0 || n > uint64(len(c.p))/8 {
		return Record{}, errBadRecord
	}
	if flags&recRagged != 0 && dim != 0 {
		return Record{}, errBadRecord
	}
	var first uint64
	var indices, weights, ts, hasTS, lens []byte
	if flags&recSeqIndex != 0 {
		if b := c.take(8); b != nil {
			first = le.Uint64(b)
		}
	} else {
		indices = c.take(8 * n)
	}
	labels := c.take(8 * n)
	if flags&recWeights != 0 {
		weights = c.take(8 * n)
	}
	if flags&recTimestamps != 0 {
		ts, hasTS = c.take(8*n), c.take(n)
	}
	if flags&recRagged != 0 {
		lens = c.take(4 * n)
	}
	// What remains is exactly the values column. n < 2^27 and every
	// per-op count is below 2^32, so neither n*dim nor the sum overflows.
	total := uint64(len(c.p)) / 8
	if c.bad || uint64(len(c.p))%8 != 0 {
		return Record{}, errBadRecord
	}
	if lens != nil {
		sum := uint64(0)
		for i := uint64(0); i < n; i++ {
			sum += uint64(le.Uint32(lens[4*i:]))
		}
		if sum != total {
			return Record{}, errBadRecord
		}
	} else if n*dim != total {
		return Record{}, errBadRecord
	}
	for _, b := range hasTS {
		if b > 1 {
			return Record{}, errBadRecord
		}
	}

	ops := make([]Op, n)
	vals := make([]float64, total)
	for i := range vals {
		vals[i] = math.Float64frombits(le.Uint64(c.p[8*i:]))
	}
	off := uint64(0)
	for i := range ops {
		op := &ops[i]
		op.P.Index = first + uint64(i)
		if indices != nil {
			op.P.Index = le.Uint64(indices[8*i:])
		}
		op.P.Label = int(int64(le.Uint64(labels[8*i:])))
		op.P.Weight = 1
		if weights != nil {
			op.P.Weight = math.Float64frombits(le.Uint64(weights[8*i:]))
		}
		if ts != nil {
			op.TS = math.Float64frombits(le.Uint64(ts[8*i:]))
			op.HasTS = hasTS[i] == 1
		}
		k := dim
		if lens != nil {
			k = uint64(le.Uint32(lens[4*i:]))
		}
		if k > 0 {
			op.P.Values = vals[off : off+k : off+k]
		}
		off += k
	}
	return Record{Ops: ops}, nil
}

// decodeRecordV1 parses one gob payload of a BRESJRN1 journal.
func decodeRecordV1(p []byte) (Record, error) {
	var rec Record
	err := gob.NewDecoder(bytes.NewReader(p)).Decode(&rec)
	return rec, err
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
	records  []Record
	tornTail bool
	corrupt  bool
}

// decodeJournal reads a journal stream, v2 or v1 by its magic. A header
// failure is corruption (the whole file is untrustworthy); record failures
// end the scan with the valid prefix, classified as torn or corrupt.
func decodeJournal(r io.Reader) (journalScan, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 16)
	if _, err := io.ReadFull(br, head); err != nil {
		return journalScan{}, fmt.Errorf("%w: journal header truncated: %v", errCorrupt, err)
	}
	var decode func([]byte) (Record, error)
	switch [8]byte(head[:8]) {
	case journalMagic:
		decode = decodeRecord
	case journalMagicV1:
		decode = decodeRecordV1
	default:
		return journalScan{}, fmt.Errorf("%w: bad journal magic %q", errCorrupt, head[:8])
	}
	scan := journalScan{base: binary.LittleEndian.Uint64(head[8:16])}
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
		rec, err := decode(payload)
		if err != nil {
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
