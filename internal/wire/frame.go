// Package wire is Frame, the one in-memory form of an ingest batch, with
// its codecs — the binary ingest protocol, length-prefixed frames over
// persistent TCP, and the JSON ingest body's decoder (ingest.go) — and
// Check, the one batch check every ingest path admits a batch by. The
// core samplers sustain hundreds of millions of points per second; this
// package keeps the network path in front of them from being an order of
// magnitude slower.
//
// One connection carries a sequence of ingest frames, each answered by
// exactly one reply. A frame names its stream, so one connection can feed
// many streams. The decoder reads into reusable buffers — on the steady
// state it performs zero allocations per frame (see BenchmarkWireDecodeFrame)
// and never reads past the frame's declared length.
//
// Frame layout (all integers little-endian):
//
//	offset 0   magic    uint32   0x32575242 ("BRW2")
//	offset 4   nameLen  uint32   stream name length, 1..255
//	offset 8   bodyLen  uint32   bytes following this 12-byte header
//	offset 12  name     [nameLen]byte
//	           batch    [bodyLen-nameLen]byte, in the batch layout
//
// Batch layout, the one columnar encoding of a point batch: a frame's
// body after the name, and the payload of every journal record of
// internal/durable. Each optional column is present only with its flag:
//
//	[8]        count of points
//	[4]        dim: values per point (0 when ragged)
//	[1]        flags: 1 first index, 2 weights, 4 timestamps, 8 ragged
//	[8]        first index                      with flag 1
//	[8×count]  indices                          without flag 1
//	[8×count]  labels (int64, -1 unlabeled)
//	[8×count]  weights (float64)                with flag 2
//	[8×count]  timestamps (float64)             with flag 4
//	[count]    has-ts (0 or 1)                  with flag 4
//	[4×count]  values per point                 with flag 8
//	[8×Σdim]   values (float64), point after point
//
// On a little-endian host each 8-byte column is its own memory, so the
// codec moves it as one copy; a big-endian host converts it word by word.
//
// Every length is checked against the batch's own size before anything is
// allocated. A frame's batch has 1..MaxCount points of dim 1..MaxDim and
// is never ragged. Its first index 0 — never a valid arrival index —
// leaves sequencing to the server, exactly like the JSON ingest path;
// without the weights column every weight is 1; a point whose has-ts is 0
// carries no timestamp.
//
// A frame that opens with the previous layout's magic, "BRW1", is refused
// by name: the error reply says to send BRW2.
//
// Reply layout (server → client, one per frame):
//
//	offset 0  status   uint8    0 OK, 1 backpressure, 2 error
//	offset 1  msgLen   uint8    error message length (status 2 only)
//	offset 2  retryMS  uint16   backpressure retry hint, milliseconds
//	offset 4  pending  uint32   points accepted but not yet applied (saturating)
//	offset 8  msg      [msgLen]byte
//
// A backpressure reply is the wire form of the HTTP 429 contract: the
// server consumed nothing, and the client must resend the whole frame
// after the hinted delay — nothing is ever silently dropped. An error
// reply is authoritative (bad stream, bad dimensionality, malformed
// frame); after a framing-level error the server closes the connection,
// since byte alignment can no longer be trusted.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"biasedres/internal/stream"
)

// Magic opens every frame: "BRW2" read as a little-endian uint32.
// magicV1 opened frames of the previous layout, "BRW1", which are refused.
const (
	Magic   uint32 = 0x32575242
	magicV1 uint32 = 0x31575242
)

// HeaderLen is the fixed frame header size in bytes.
const HeaderLen = 12

// Batch flag bits.
const (
	batchFirst   = 1 << iota // indices are first, first+1, …: one index stored
	batchWeights             // weights column present
	batchTS                  // timestamp and has-ts columns present
	batchRagged              // per-point value counts present; dim is 0
	batchAll     = batchFirst | batchWeights | batchTS | batchRagged
)

// batchHeaderLen is the fixed prefix of a batch: count, dim, flags.
const batchHeaderLen = 8 + 4 + 1

// Frame size limits, enforced by the decoder before any section math so a
// hostile header cannot size a read.
const (
	// MaxCount bounds points per frame.
	MaxCount = 1 << 20
	// MaxDim bounds point dimensionality.
	MaxDim = 1 << 16
)

// Reply status codes.
const (
	// StatusOK acknowledges an accepted frame.
	StatusOK = 0
	// StatusBackpressure rejects a frame because the stream's ingest
	// queue is full; the server consumed nothing and the client should
	// resend after RetryMS (HTTP 429 semantics).
	StatusBackpressure = 1
	// StatusError rejects a frame authoritatively (unknown stream, bad
	// dimensionality, malformed frame); resending the same frame cannot
	// succeed.
	StatusError = 2
)

// ReplyHeaderLen is the fixed reply size before the optional message.
const ReplyHeaderLen = 8

// Frame is one point batch in columns: a decoded ingest frame or JSON
// body, a journal record, or a batch the server applies. Decoding reuses the Frame's
// slices, so a connection loop that passes the same *Frame to every
// DecodeBody call allocates nothing once the slices have grown to the
// working batch shape. Name aliases the decode buffer and is only valid
// until the buffer is reused.
type Frame struct {
	// Name is the target stream name; on decode it aliases the buffer.
	Name []byte
	// Dim is the point dimensionality (0 for a ragged batch).
	Dim int
	// Count is the number of points.
	Count int
	// First is the arrival index of the first point when Indices is nil;
	// the points' indices are First, First+1, …. Zero, never a valid
	// index, leaves sequencing to the server.
	First uint64
	// Indices holds explicit arrival indices (len Count), or is nil.
	Indices []uint64
	// Labels holds per-point class labels (len Count; -1 unlabeled), or
	// is nil when every point is unlabeled. Decoding always fills it.
	Labels []int64
	// Weights holds per-point weights (len Count), or is nil: all 1.
	Weights []float64
	// TS and HasTS hold per-point timestamps (len Count each), or are nil
	// when no point carries one; TS[i] is the point's timestamp only when
	// HasTS[i].
	TS    []float64
	HasTS []bool
	// Lens holds per-point value counts of a ragged batch (Dim 0), or is
	// nil; only journals from before mixed dims were refused hold one.
	Lens []uint32
	// Values holds the packed coordinates, point after point: without
	// Lens, point i occupies Values[i*Dim : (i+1)*Dim].
	Values []float64
}

// Index is the arrival index of point i.
func (f *Frame) Index(i int) uint64 {
	if f.Indices != nil {
		return f.Indices[i]
	}
	return f.First + uint64(i)
}

// Points returns the frame's points in dst's storage: their values alias
// f.Values (copy before the next decode if retained), a missing label is
// -1 and a missing weight 1.
func (f *Frame) Points(dst []stream.Point) []stream.Point {
	dst = slices.Grow(dst[:0], f.Count)[:f.Count]
	off := 0
	for i := range dst {
		k := f.Dim
		if f.Lens != nil {
			k = int(f.Lens[i])
		}
		p := &dst[i]
		*p = stream.Point{Index: f.First + uint64(i), Values: f.Values[off : off+k : off+k], Label: -1, Weight: 1}
		off += k
		if f.Indices != nil {
			p.Index = f.Indices[i]
		}
		if f.Labels != nil {
			p.Label = int(f.Labels[i])
		}
		if f.Weights != nil {
			p.Weight = f.Weights[i]
		}
	}
	return dst
}

// CopyFrom makes f a copy of src's batch that shares no storage with it,
// reusing f's columns; f.Name is left alone.
func (f *Frame) CopyFrom(src *Frame) {
	f.Dim, f.Count, f.First = src.Dim, src.Count, src.First
	f.Indices, f.Labels, f.Weights = copyColumn(f.Indices, src.Indices), copyColumn(f.Labels, src.Labels), copyColumn(f.Weights, src.Weights)
	f.TS, f.HasTS, f.Lens = copyColumn(f.TS, src.TS), copyColumn(f.HasTS, src.HasTS), copyColumn(f.Lens, src.Lens)
	f.Values = copyColumn(f.Values, src.Values)
}

// copyColumn copies src into dst's storage; a nil src yields nil.
func copyColumn[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

// Header is the parsed fixed-size frame header; BodyLen tells the
// transport how many bytes to read before DecodeBody can run.
type Header struct {
	NameLen int
	BodyLen int
}

// ParseHeader validates the HeaderLen-byte header at the front of b. It
// refuses any magic but BRW2's, naming BRW2, and bounds BodyLen against
// the name length; DecodeBody checks the body's batch against BodyLen
// before it allocates.
func ParseHeader(b []byte) (Header, error) {
	le := binary.LittleEndian
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("wire: short header: %d of the %d bytes of a BRW2 header", len(b), HeaderLen)
	}
	switch m := le.Uint32(b); m {
	case Magic:
	case magicV1:
		return Header{}, fmt.Errorf("wire: BRW1 frames are no longer accepted; send BRW2 frames")
	default:
		return Header{}, fmt.Errorf("wire: bad magic 0x%08x, want BRW2 (0x%08x)", m, Magic)
	}
	nameLen, bodyLen := le.Uint32(b[4:8]), le.Uint32(b[8:12])
	if nameLen == 0 || nameLen > 255 {
		return Header{}, fmt.Errorf("wire: stream name length %d out of range [1,255]", nameLen)
	}
	if bodyLen < nameLen+batchHeaderLen {
		return Header{}, fmt.Errorf("wire: body length %d cannot hold a %d-byte name and a batch", bodyLen, nameLen)
	}
	return Header{NameLen: int(nameLen), BodyLen: int(bodyLen)}, nil
}

// checkShape bounds a frame's point count and dimensionality.
func checkShape(count, dim uint64) error {
	if dim == 0 || dim > MaxDim {
		return fmt.Errorf("wire: dim %d out of range [1,%d]", dim, MaxDim)
	}
	if count == 0 || count > MaxCount {
		return fmt.Errorf("wire: count %d out of range [1,%d]", count, MaxCount)
	}
	return nil
}

// DecodeBody parses a frame body of exactly h.BodyLen bytes into f,
// reusing f's slices. f.Name aliases body. It never reads outside body,
// and it checks the batch's count, dim and flags before the batch
// decoder allocates anything.
func (h Header) DecodeBody(body []byte, f *Frame) error {
	if len(body) != h.BodyLen {
		return fmt.Errorf("wire: body is %d bytes, header declared %d", len(body), h.BodyLen)
	}
	f.Name = body[:h.NameLen]
	p := body[h.NameLen:]
	if p[12]&batchRagged != 0 {
		return fmt.Errorf("wire: a frame's batch cannot be ragged")
	}
	if err := checkShape(binary.LittleEndian.Uint64(p), uint64(binary.LittleEndian.Uint32(p[8:]))); err != nil {
		return err
	}
	return DecodeBatch(p, f)
}

// DecodeFrame parses one whole frame (header + body) from the front of
// buf into f and returns the remaining bytes. It is the in-memory
// convenience the fuzzer and tests drive; the connection loop uses
// ParseHeader + DecodeBody so it can size the body read first.
func DecodeFrame(buf []byte, f *Frame) (rest []byte, err error) {
	h, err := ParseHeader(buf)
	if err != nil {
		return buf, err
	}
	body := buf[HeaderLen:]
	if len(body) < h.BodyLen {
		return buf, fmt.Errorf("wire: frame truncated: body has %d of %d bytes", len(body), h.BodyLen)
	}
	if err := h.DecodeBody(body[:h.BodyLen], f); err != nil {
		return buf, err
	}
	return body[h.BodyLen:], nil
}

// AppendFrame validates f and appends it as a BRW2 frame for the named
// stream to dst, returning the extended slice. The encoder is the client
// side's hot path; it only allocates when dst must grow.
func AppendFrame(dst []byte, name string, f *Frame) ([]byte, error) {
	if len(name) == 0 || len(name) > 255 {
		return dst, fmt.Errorf("wire: stream name length %d out of range [1,255]", len(name))
	}
	if err := checkShape(uint64(f.Count), uint64(f.Dim)); err != nil {
		return dst, err // a ragged batch, of dim 0, too
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // bodyLen, filled in below
	dst = append(dst, name...)
	dst, err := AppendBatch(dst, f)
	if err != nil {
		return dst[:start], err
	}
	binary.LittleEndian.PutUint32(dst[start+8:], uint32(len(dst)-start-HeaderLen))
	return dst, nil
}

// AppendBatch appends f's columns to dst in the batch layout: the body of
// a frame after its name, and the payload of a journal record. It refuses
// a column whose length disagrees with f's Count, Dim or Lens.
func AppendBatch(dst []byte, f *Frame) ([]byte, error) {
	n, values := f.Count, f.Count*f.Dim
	for _, k := range f.Lens {
		values += int(k)
	}
	if f.Labels != nil && len(f.Labels) != n || f.Indices != nil && (len(f.Indices) != n || f.First != 0) ||
		f.Weights != nil && len(f.Weights) != n || (f.TS != nil || f.HasTS != nil) && (len(f.TS) != n || len(f.HasTS) != n) ||
		f.Lens != nil && (len(f.Lens) != n || f.Dim != 0) || len(f.Values) != values {
		return dst, fmt.Errorf("wire: the columns of a batch of %d points of dim %d disagree on its size", n, f.Dim)
	}
	var flags byte
	if f.Indices == nil {
		flags |= batchFirst
	}
	if f.Weights != nil {
		flags |= batchWeights
	}
	if f.TS != nil {
		flags |= batchTS
	}
	if f.Lens != nil {
		flags |= batchRagged
	}
	le := binary.LittleEndian
	dst = slices.Grow(dst, batchHeaderLen+8+8*(len(f.Indices)+n+len(f.Weights)+len(f.TS)+values)+len(f.HasTS)+4*len(f.Lens))
	dst = le.AppendUint64(dst, uint64(n))
	dst = le.AppendUint32(dst, uint32(f.Dim))
	dst = append(dst, flags)
	if flags&batchFirst != 0 {
		dst = le.AppendUint64(dst, f.First)
	}
	dst = appendWords(dst, f.Indices)
	if f.Labels != nil {
		dst = appendWords(dst, f.Labels)
	} else {
		for range n {
			dst = le.AppendUint64(dst, math.MaxUint64) // -1, unlabeled
		}
	}
	dst = appendWords(dst, f.Weights)
	dst = appendWords(dst, f.TS)
	for _, has := range f.HasTS {
		var b byte
		if has {
			b = 1
		}
		dst = append(dst, b)
	}
	for _, k := range f.Lens {
		dst = le.AppendUint32(dst, k)
	}
	return appendWords(dst, f.Values), nil
}

// DecodeBatch parses one batch in the batch layout into f, reusing f's
// slices; f.Name is left alone. Every column length is checked against
// the bytes remaining before anything is allocated, so a batch that
// claims more points or values than it holds fails instead of
// allocating. f owns what it decodes: p may be reused afterwards.
func DecodeBatch(p []byte, f *Frame) error {
	// A batch of at most 4 GiB (a frame body's bodyLen is a uint32, a
	// journal record's length too) keeps the column math below from
	// overflowing.
	if len(p) < batchHeaderLen || uint64(len(p)) > math.MaxUint32 {
		return fmt.Errorf("wire: batch of %d bytes", len(p))
	}
	le := binary.LittleEndian
	n, dim, flags := le.Uint64(p), uint64(le.Uint32(p[8:])), p[12]
	rest, short := p[batchHeaderLen:], false
	if flags&^batchAll != 0 {
		return fmt.Errorf("wire: unknown batch flag bits 0x%02x", flags)
	}
	// Labels alone take 8 bytes per point, so this bounds n (below 2^29)
	// before anything is allocated by it.
	if n > uint64(len(rest))/8 {
		return fmt.Errorf("wire: batch claims %d points in %d bytes", n, len(p))
	}
	if flags&batchRagged != 0 && dim != 0 {
		return fmt.Errorf("wire: ragged batch with dim %d", dim)
	}
	// take cuts the next k-byte column off rest when the batch has it; a
	// column past the end marks the batch short.
	take := func(has bool, k uint64) []byte {
		if !has || short || uint64(len(rest)) < k {
			short = short || has
			return nil
		}
		col := rest[:k]
		rest = rest[k:]
		return col
	}
	first, indices := take(flags&batchFirst != 0, 8), take(flags&batchFirst == 0, 8*n)
	labels, weights := take(true, 8*n), take(flags&batchWeights != 0, 8*n)
	ts, hasTS := take(flags&batchTS != 0, 8*n), take(flags&batchTS != 0, n)
	lens := take(flags&batchRagged != 0, 4*n)
	// What remains is exactly the values column. n < 2^29 and every
	// per-point count is below 2^32, so neither n*dim nor the sum
	// overflows.
	if short || len(rest)%8 != 0 {
		return fmt.Errorf("wire: batch columns do not add up to its %d bytes", len(p))
	}
	want := n * dim
	if lens != nil {
		want = 0
		for i := uint64(0); i < n; i++ {
			want += uint64(le.Uint32(lens[4*i:]))
		}
	}
	if total := uint64(len(rest)) / 8; want != total {
		return fmt.Errorf("wire: batch holds %d values, its points need %d", total, want)
	}
	for _, b := range hasTS {
		if b > 1 {
			return fmt.Errorf("wire: has-ts byte %d is not 0 or 1", b)
		}
	}

	f.Count, f.Dim, f.First = int(n), int(dim), 0
	if first != nil {
		f.First = le.Uint64(first)
	}
	f.Indices = decodeWords(f.Indices, indices)
	f.Labels = decodeWords(f.Labels, labels)
	f.Weights = decodeWords(f.Weights, weights)
	f.TS = decodeWords(f.TS, ts)
	f.HasTS = decodeColumn(f.HasTS, hasTS, 1, func(b []byte) bool { return b[0] == 1 })
	f.Lens = decodeColumn(f.Lens, lens, 4, le.Uint32)
	f.Values = decodeWords(f.Values, rest)
	return nil
}

// word is the type of an 8-byte column of the batch layout.
type word interface{ ~uint64 | ~int64 | ~float64 }

// hostLE is whether the host stores an 8-byte word in the batch layout's
// byte order, little-endian: then a word column's memory is its encoding,
// and appendWords and decodeWords move it as one copy.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wordBytes views column vs as its bytes in memory.
func wordBytes[T word](vs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

// appendWords appends vs to dst as little-endian words: in one copy on a
// little-endian host, word by word on any other.
func appendWords[T word](dst []byte, vs []T) []byte {
	b := wordBytes(vs)
	if hostLE {
		return append(dst, b...)
	}
	for i := 0; i < len(b); i += 8 {
		dst = binary.LittleEndian.AppendUint64(dst, binary.NativeEndian.Uint64(b[i:]))
	}
	return dst
}

// decodeWords decodes column b of little-endian words into dst's storage,
// in one copy on a little-endian host and word by word on any other; a
// nil b (an absent column) yields nil.
func decodeWords[T word](dst []T, b []byte) []T {
	if b == nil {
		return nil
	}
	dst = grow(dst, len(b)/8)
	out := wordBytes(dst)
	if hostLE {
		copy(out, b)
		return dst
	}
	for i := 0; i < len(b); i += 8 {
		binary.NativeEndian.PutUint64(out[i:], binary.LittleEndian.Uint64(b[i:]))
	}
	return dst
}

// decodeColumn decodes column b, of size-byte entries, into dst's
// storage; a nil b (an absent column) yields nil.
func decodeColumn[T any](dst []T, b []byte, size int, decode func([]byte) T) []T {
	if b == nil {
		return nil
	}
	dst = grow(dst, len(b)/size)
	for i := range dst {
		dst[i] = decode(b[size*i:])
	}
	return dst
}

// grow returns s resized to n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Reply is the server's answer to one frame.
type Reply struct {
	// Status is StatusOK, StatusBackpressure or StatusError.
	Status byte
	// RetryMS is the backpressure retry hint in milliseconds.
	RetryMS uint16
	// Pending is the stream's accepted-but-unapplied point count after
	// this frame, saturated at MaxUint32.
	Pending uint32
	// Msg is the error message (StatusError only, truncated to 255 bytes).
	Msg string
}

// Ack builds an OK reply carrying the stream's pending point count.
func Ack(pending int64) Reply {
	if pending < 0 {
		pending = 0
	}
	if pending > math.MaxUint32 {
		pending = math.MaxUint32
	}
	return Reply{Status: StatusOK, Pending: uint32(pending)}
}

// Nack builds a backpressure reply with a retry hint.
func Nack(retryMS uint16) Reply { return Reply{Status: StatusBackpressure, RetryMS: retryMS} }

// Errorf builds an authoritative error reply.
func Errorf(format string, args ...any) Reply {
	return Reply{Status: StatusError, Msg: fmt.Sprintf(format, args...)}
}

// AppendReply appends r's encoded form to dst.
func AppendReply(dst []byte, r Reply) []byte {
	msg := r.Msg
	if len(msg) > 255 {
		msg = msg[:255]
	}
	dst = append(dst, r.Status, byte(len(msg)))
	dst = binary.LittleEndian.AppendUint16(dst, r.RetryMS)
	dst = binary.LittleEndian.AppendUint32(dst, r.Pending)
	return append(dst, msg...)
}

// DecodeReply parses one reply from the front of buf and returns the
// remaining bytes. A short buffer is an error; the transport reads the
// fixed ReplyHeaderLen first, then msgLen more.
func DecodeReply(buf []byte) (Reply, []byte, error) {
	if len(buf) < ReplyHeaderLen {
		return Reply{}, buf, fmt.Errorf("wire: short reply: %d bytes", len(buf))
	}
	r := Reply{
		Status:  buf[0],
		RetryMS: binary.LittleEndian.Uint16(buf[2:4]),
		Pending: binary.LittleEndian.Uint32(buf[4:8]),
	}
	msgLen := int(buf[1])
	if len(buf)-ReplyHeaderLen < msgLen {
		return Reply{}, buf, fmt.Errorf("wire: reply message truncated: %d of %d bytes",
			len(buf)-ReplyHeaderLen, msgLen)
	}
	r.Msg = string(buf[ReplyHeaderLen : ReplyHeaderLen+msgLen])
	return r, buf[ReplyHeaderLen+msgLen:], nil
}
