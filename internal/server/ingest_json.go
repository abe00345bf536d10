package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"unsafe"
)

// bodyPool recycles ingest body buffers of up to maxPooledBody bytes:
// decoded points never alias the buffer, so it is reused at once.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// readIngest reads an ingest body whole, bounded by the body limit, and
// decodes it: decodeIngest for the canonical shape, encoding/json (its
// verdicts, its error texts) for any other. It writes HTTP errors itself.
func (s *Server) readIngest(w http.ResponseWriter, r *http.Request) (IngestRequest, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		bodyError(w, err, "decoding request: %v")
		return IngestRequest{}, false
	}
	if req, ok := decodeIngest(buf.Bytes()); ok {
		return req, true
	}
	var req IngestRequest
	if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return IngestRequest{}, false
	}
	return req, true
}

// Keys of the canonical ingest body, as bits of an object's seen-mask.
const keyValues, keyLabel, keyWeight, keyTS, keyPoints = 1, 2, 4, 8, 16

var ingestKeys = map[string]int{"values": keyValues, "label": keyLabel, "weight": keyWeight, "ts": keyTS, "points": keyPoints}

// decodeIngest parses the canonical ingest body
// {"points":[{"values":[…],"label":n,"weight":w,"ts":t},…]}: lowercase,
// escape-free keys, each at most once per object, RFC 8259 numbers parsed
// by the strconv calls encoding/json makes, so the result is bit-identical
// to encoding/json's. Any other body (null, other keys or key cases,
// duplicates, non-integer labels, out-of-range numbers, trailing bytes)
// reports ok=false, for the caller to hand to encoding/json.
//
// The points' Values are exact-length slices of one backing per body:
// samplers copy the values of the points they retain, so no retained
// point pins the body. Every value follows a '[' or a ',', which sizes
// the backing so it does not grow. Labels and timestamps are copied by
// value downstream, so their pointer targets share one backing per batch.
func decodeIngest(body []byte) (req IngestRequest, ok bool) {
	s := ingestScanner{
		b:      body,
		vals:   make([]float64, 0, bytes.Count(body, []byte("["))+bytes.Count(body, []byte(","))),
		labels: make([]int, 0, bytes.Count(body, []byte(`"label"`))),
		ts:     make([]float64, 0, bytes.Count(body, []byte(`"ts"`))),
	}
	ok = s.object(func(key int) bool {
		if key != keyPoints {
			return false
		}
		req.Points = make([]IngestPoint, 0, bytes.Count(body, []byte(`"values"`)))
		return s.list(func() bool {
			p, ok := s.point()
			req.Points = append(req.Points, p)
			return ok
		})
	})
	s.space()
	return req, ok && s.i == len(s.b)
}

// ingestScanner is decodeIngest's cursor over the body.
type ingestScanner struct {
	b      []byte
	i      int
	vals   []float64 // backing of the batch's Values, sized to never move
	labels []int     // backing of the batch's Label targets, sized to never move
	ts     []float64 // backing of the batch's TS targets, sized to never move
}

// point scans one point object.
func (s *ingestScanner) point() (p IngestPoint, ok bool) {
	ok = s.object(func(key int) bool {
		switch key {
		case keyValues:
			start := len(s.vals)
			ok := s.list(func() bool {
				s.vals = append(s.vals, 0)
				return s.float(&s.vals[len(s.vals)-1])
			})
			p.Values = s.vals[start:len(s.vals):len(s.vals)]
			return ok
		case keyLabel:
			n, err := strconv.Atoi(s.number())
			s.labels = append(s.labels, n)
			p.Label = &s.labels[len(s.labels)-1]
			return err == nil
		case keyWeight:
			return s.float(&p.Weight)
		case keyTS:
			s.ts = append(s.ts, 0)
			p.TS = &s.ts[len(s.ts)-1]
			return s.float(p.TS)
		}
		return false
	})
	return p, ok
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

// float scans a number into dst, parsed as encoding/json parses a float64.
func (s *ingestScanner) float(dst *float64) bool {
	f, err := strconv.ParseFloat(s.number(), 64)
	*dst = f
	return err == nil
}

// number scans an RFC 8259 number and returns its text, or "" when none
// comes next. The text is a view of the body, parsed on the spot: strconv
// copies it into any error it returns, so it never outlives the buffer.
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
