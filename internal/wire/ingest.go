package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unsafe"
)

// IngestPoint is one point of a JSON ingest body.
type IngestPoint struct {
	Values []float64 `json:"values"`
	Label  *int      `json:"label,omitempty"`
	Weight float64   `json:"weight,omitempty"`
	// TS is the point's timestamp, honoured by "timedecay" streams
	// (must be non-decreasing) and ignored by arrival-indexed policies.
	TS *float64 `json:"ts,omitempty"`
}

// IngestRequest is a JSON ingest body: POST /streams/{name}/points.
type IngestRequest struct {
	Points []IngestPoint `json:"points"`
}

// SetPoints makes f the batch of pts, reusing f's columns, as ReadIngest
// builds it from a body encoding pts: labels -1 where absent, and each
// optional column (weights, timestamps, Lens) only when a point needs it.
func (f *Frame) SetPoints(pts []IngestPoint) {
	f.clear()
	values := 0
	for _, p := range pts {
		values += len(p.Values)
	}
	f.Values, f.Labels = slices.Grow(f.Values, values), slices.Grow(f.Labels, len(pts))
	for _, p := range pts {
		label := int64(-1)
		if p.Label != nil {
			label = int64(*p.Label)
		}
		ts := 0.0
		if p.TS != nil {
			ts = *p.TS
		}
		f.Values = append(f.Values, p.Values...)
		f.add(len(p.Values), label, p.Weight, ts, p.TS != nil)
	}
	f.seal()
}

// Split deals checked frame f's points round-robin into parts, reusing
// their columns: point i goes to parts[(start+i) mod len(parts)].
func (f *Frame) Split(parts []Frame, start uint64) {
	k := uint64(len(parts))
	for s := range parts {
		p := &parts[s]
		p.clear()
		for i := int((uint64(s) + k - start%k) % k); i < f.Count; i += int(k) {
			p.Values = append(p.Values, f.Values[i*f.Dim:(i+1)*f.Dim]...)
			p.add(f.Dim, at(f.Labels, i, -1), at(f.Weights, i, 0), at(f.TS, i, 0), at(f.HasTS, i, false))
		}
		p.seal()
	}
}

// IngestPoints is checked frame f as JSON ingest points.
func (f *Frame) IngestPoints() []IngestPoint {
	pts, labels := make([]IngestPoint, f.Count), make([]int, f.Count)
	for i := range pts {
		labels[i] = int(at(f.Labels, i, -1))
		pts[i] = IngestPoint{Values: f.Values[i*f.Dim : (i+1)*f.Dim], Label: &labels[i], Weight: at(f.Weights, i, 0)}
		if f.HasTS != nil && f.HasTS[i] {
			pts[i].TS = &f.TS[i]
		}
	}
	return pts
}

// clear empties f's columns, keeping their storage, for add to build f
// point after point and seal to finish.
func (f *Frame) clear() {
	f.Dim, f.Count, f.First, f.Indices = 0, 0, 0, nil
	f.Values, f.Labels = f.Values[:0], f.Labels[:0]
	f.Weights, f.TS, f.HasTS, f.Lens = f.Weights[:0], f.TS[:0], f.HasTS[:0], f.Lens[:0]
}

// add closes a point whose k values were appended to the values column;
// a weight of 0 is absent, and ts only counts when stamped. An optional
// column starts at the first point that has it, padded before, so it is
// present iff not empty; until seal, Dim is the first point's dimension.
func (f *Frame) add(k int, label int64, weight, ts float64, stamped bool) {
	n := len(f.Labels)
	f.Labels = append(f.Labels, label)
	if weight != 0 || len(f.Weights) > 0 {
		f.Weights = append(pad(f.Weights, n, 0), weight)
	}
	if stamped || len(f.TS) > 0 {
		f.TS, f.HasTS = append(pad(f.TS, n, 0), ts), append(pad(f.HasTS, n, false), stamped)
	}
	if n == 0 {
		f.Dim = k
	}
	if k != f.Dim || len(f.Lens) > 0 {
		f.Lens = append(pad(f.Lens, n, uint32(f.Dim)), uint32(k))
	}
}

// seal sets f's shape and drops the empty columns.
func (f *Frame) seal() {
	f.Count = len(f.Labels)
	if len(f.Lens) > 0 {
		f.Dim = 0
	}
	f.Weights, f.TS, f.HasTS, f.Lens = orNil(f.Weights), orNil(f.TS), orNil(f.HasTS), orNil(f.Lens)
}

// pad extends col with v up to length n.
func pad[T any](col []T, n int, v T) []T {
	for len(col) < n {
		col = append(col, v)
	}
	return col
}

// orNil is col, or nil when col is empty.
func orNil[T any](col []T) []T {
	if len(col) == 0 {
		return nil
	}
	return col
}

// at is col[i], or def for an absent column.
func at[T any](col []T, i int, def T) T {
	if col == nil {
		return def
	}
	return col[i]
}

// Check is the one ingest batch check of the node, the coordinator and
// the client: it refuses no points, a point without values or of another
// dimension than the first's, and a NaN or ±Inf value, weight or
// timestamp. It normalizes what it admits to the batch a journal records:
// no Lens, a weight of 0 read as 1, no weights column of ones and no
// timestamp column without a stamped point.
//
// A batch without Lens is checked column by column; only a batch that
// fails there, or has Lens, takes checkPoints, which names the first bad
// point.
func (f *Frame) Check() error {
	n := f.Count
	if f.Lens != nil || n == 0 || f.Dim == 0 || !finite(f.Values[:n*f.Dim]) ||
		f.Weights != nil && !finite(f.Weights[:n]) || f.TS != nil && !finite(f.TS[:n]) {
		return f.checkPoints()
	}
	f.normalize()
	return nil
}

// checkPoints is Check point by point: it refuses the batch at its first
// bad point, with that point's message.
func (f *Frame) checkPoints() error {
	if f.Count == 0 {
		return errors.New("no points")
	}
	f.Dim = int(at(f.Lens, 0, uint32(f.Dim)))
	off := 0
	for i := range f.Count {
		k := int(at(f.Lens, i, uint32(f.Dim)))
		switch {
		case k == 0:
			return fmt.Errorf("point %d has no values", i)
		case k != f.Dim:
			return fmt.Errorf("point %d has dim %d, batch has %d", i, k, f.Dim)
		case !finite(f.Values[off:off+k]) || f.Weights != nil && !finite(f.Weights[i:i+1]) || f.TS != nil && !finite(f.TS[i:i+1]):
			return fmt.Errorf("point %d has a non-finite value, weight or timestamp", i)
		}
		off += k
	}
	f.normalize()
	return nil
}

// normalize makes checked batch f the batch a journal records: a weight
// of 0 reads as 1, and a weights column of ones, a timestamp column
// without a stamped point and Lens are dropped.
func (f *Frame) normalize() {
	ones := true
	for i, w := range f.Weights {
		if w == 0 {
			f.Weights[i] = 1
		}
		ones = ones && f.Weights[i] == 1
	}
	if ones {
		f.Weights = nil
	}
	if f.TS == nil || !slices.Contains(f.HasTS, true) {
		f.TS, f.HasTS = nil, nil
	}
	f.Lens = nil
}

// finite reports whether every x in xs is finite. x-x is 0 for a finite x
// and NaN for NaN and ±Inf, and a NaN makes every sum it enters NaN; four
// independent sums keep each add from waiting on the one before.
func finite(xs []float64) bool {
	var a, b, c, d float64
	for ; len(xs) >= 4; xs = xs[4:] {
		a += xs[0] - xs[0]
		b += xs[1] - xs[1]
		c += xs[2] - xs[2]
		d += xs[3] - xs[3]
	}
	for _, x := range xs {
		a += x - x
	}
	return a+b+c+d == 0
}

// bodyPool recycles ingest body buffers of up to 1 MiB: a decoded frame
// never aliases the body, so it is reused at once.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadIngest reads a JSON ingest body whole from r and decodes it into
// f, reusing f's columns, as SetPoints builds it from the body's points.
// The canonical body takes one pass; any other goes to encoding/json,
// whose verdict and error text it returns.
func ReadIngest(r io.Reader, f *Frame) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 1<<20 {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(r); err != nil || DecodeCanonical(buf.Bytes(), f) {
		return err
	}
	var req IngestRequest
	if err := json.NewDecoder(buf).Decode(&req); err != nil {
		return err
	}
	f.SetPoints(req.Points)
	return nil
}

// Keys of the canonical ingest body, as bits of an object's seen-mask.
const keyValues, keyLabel, keyWeight, keyTS, keyPoints = 1, 2, 4, 8, 16

var ingestKeys = map[string]int{"values": keyValues, "label": keyLabel, "weight": keyWeight, "ts": keyTS, "points": keyPoints}

// DecodeCanonical parses the canonical ingest body
// {"points":[{"values":[…],"label":n,"weight":w,"ts":t},…]} into f:
// lowercase, escape-free keys, each at most once per object, RFC 8259
// numbers parsed to the bits of the strconv calls encoding/json makes,
// so the frame is bit-identical to the one SetPoints builds from
// encoding/json's decode. Any other body (null, other keys or key
// cases, duplicates, non-integer labels, out-of-range numbers, trailing
// bytes) reports false, for the caller to hand to encoding/json.
func DecodeCanonical(body []byte, f *Frame) bool {
	s := ingestScanner{b: body, f: f}
	f.clear()
	ok := s.object(func(key int) bool {
		return key == keyPoints && s.list(s.point)
	})
	f.seal()
	s.space()
	return ok && s.i == len(s.b)
}

// ingestScanner is DecodeCanonical's cursor over the body.
type ingestScanner struct {
	b []byte
	i int
	f *Frame
}

// point scans one point object onto the frame.
func (s *ingestScanner) point() bool {
	f, start := s.f, len(s.f.Values)
	label, weight, ts, stamped := int64(-1), 0.0, 0.0, false
	ok := s.object(func(key int) bool {
		switch key {
		case keyValues:
			return s.list(func() bool {
				f.Values = append(f.Values, 0)
				return s.float(&f.Values[len(f.Values)-1])
			})
		case keyLabel:
			n, err := strconv.Atoi(s.number())
			label = int64(n)
			return err == nil
		case keyWeight:
			return s.float(&weight)
		case keyTS:
			stamped = true
			return s.float(&ts)
		}
		return false
	})
	f.add(len(f.Values)-start, label, weight, ts, stamped)
	return ok
}

// object scans {"key":value,…}, calling field after each key's colon to
// scan its value. An unknown or repeated key fails the scan.
func (s *ingestScanner) object(field func(key int) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for seen := 0; ; {
		key := s.key()
		if key == 0 || seen&key != 0 || !field(key) {
			return false
		}
		seen |= key
		if !s.eat(',') {
			return s.eat('}')
		}
	}
}

// list scans [elem,…], calling elem to scan each element.
func (s *ingestScanner) list(elem func() bool) bool {
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.eat(',') {
			return s.eat(']')
		}
	}
}

// key scans an object key and its colon and returns the key's constant,
// or 0 for any other key.
func (s *ingestScanner) key() int {
	if !s.eat('"') {
		return 0
	}
	start := s.i
	for s.i < len(s.b) && 'a' <= s.b[s.i] && s.b[s.i] <= 'z' {
		s.i++
	}
	key := ingestKeys[string(s.b[start:s.i])]
	if s.i++; s.i > len(s.b) || s.b[s.i-1] != '"' || !s.eat(':') {
		return 0
	}
	return key
}

// float scans a number into dst in one pass, parsed bit for bit as
// encoding/json parses a float64 (see parseNumber).
func (s *ingestScanner) float(dst *float64) bool {
	s.space()
	f, n, ok := parseNumber(s.b[s.i:])
	*dst, s.i = f, s.i+n
	return ok
}

// number scans an RFC 8259 number and returns its text, or "" when none
// comes next: a label's, for strconv.Atoi. The text is a view of the
// body, parsed on the spot: strconv copies it into any error it returns,
// so it never outlives the buffer.
func (s *ingestScanner) number() string {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return ""
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return ""
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i = digits(b, i); b[i-1] < '0' || b[i-1] > '9' {
			return ""
		}
	}
	lit := unsafe.String(&b[s.i], i-s.i)
	s.i = i
	return lit
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// space skips JSON whitespace.
func (s *ingestScanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// eat skips whitespace and consumes c if it comes next.
func (s *ingestScanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}
