package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"biasedres/internal/client"
	"biasedres/internal/core"
)

// ingestFallbacks are bodies decodeIngest must hand to encoding/json:
// each is outside the canonical shape, whether encoding/json then accepts
// it or not.
var ingestFallbacks = []string{
	``,
	`null`,
	`{"points":null}`,
	`[]`,
	`{"points":[{"values":null}]}`,
	`{"points":[{"values":[1],"label":null}]}`,
	`{"points":[{"Values":[1,2]}]}`,
	`{"Points":[{"values":[1,2]}]}`,
	`{"points":[{"values":[1],"values":[2]}]}`,
	`{"points":[{"values":[1],"label":1,"label":2}]}`,
	`{"points":[{"values":[1]}],"points":[]}`,
	`{"points":[{"values":[1],"note":"x"}]}`,
	`{"points":[{"values":[1],"label":1.0}]}`,
	`{"points":[{"values":[1],"label":1e2}]}`,
	`{"points":[{"values":[1],"label":99999999999999999999}]}`,
	`{"points":[{"values":[1e400]}]}`,
	`{"points":[{"values":[1],"weight":-1e999}]}`,
	`{"points":[{"values":[1]}]} trailing`,
	`{"points":[{"values":[1]}]}{}`,
	`{"points":[{"values":[01]}]}`,
	`{"points":[{"values":[1.]}]}`,
	`{"points":[{"values":[.5]}]}`,
	`{"points":[{"values":[+1]}]}`,
	`{"points":[{"values":[1e]}]}`,
	`{"points":[{"values":[NaN]}]}`,
	`{"points":[{"values":["1"]}]}`,
	`{"points":[{"values":[1,]}]}`,
	`{"points":[{"values":[1]},]}`,
	`{"points":[{"values":[1]}`,
	`{"points":[{"values":[1],"points":[]}]}`,
	`{"points":[{"values":[1],"ts ":0}]}`,
	`{"points ":[{"values":[1]}]}`,
}

// ingestCanonical are bodies inside the canonical shape, edge cases
// included.
var ingestCanonical = []string{
	`{}`,
	`{"points":[]}`,
	`{"points":[{}]}`,
	`{"points":[{"values":[]}]}`,
	`{"points":[{"values":[1,2],"label":1}]}`,
	" \t\r\n{ \"points\" : [ { \"values\" : [ 1 , -0 , 0.5e-3 ] , \"ts\" : 7 } ] }\n",
	`{"points":[{"ts":2.5,"weight":0.5,"label":-3,"values":[1E+2,-0.0,5e-324,1.7976931348623157e308]}]}`,
	`{"points":[{"values":[0.1,0.2]},{"values":[0.3,0.4],"label":4294967299},{"values":[1e-400]}]}`,
	`{"points":[{"values":[1],"label":-0,"weight":0}]}`,
}

// benchmarkBody is a body shaped like the end-to-end benchmark's: n
// labelled points of dimension dim with random 17-digit values.
func benchmarkBody(n, dim int) []byte {
	rng := rand.New(rand.NewPCG(7, 7))
	pts := make([]IngestPoint, n)
	for i := range pts {
		vals := make([]float64, dim)
		for d := range vals {
			vals[d] = rng.NormFloat64() * 10
		}
		label := rng.IntN(8)
		pts[i] = IngestPoint{Values: vals, Label: &label}
	}
	blob, err := json.Marshal(IngestRequest{Points: pts})
	if err != nil {
		panic(err)
	}
	return blob
}

// sameIngest reports whether two decoded requests are deeply equal with
// bit-identical floats (reflect.DeepEqual calls -0 and 0 equal).
func sameIngest(a, b IngestRequest) bool {
	if len(a.Points) != len(b.Points) || (a.Points == nil) != (b.Points == nil) {
		return false
	}
	sameF := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, p := range a.Points {
		q := b.Points[i]
		if len(p.Values) != len(q.Values) || (p.Values == nil) != (q.Values == nil) ||
			(p.Label == nil) != (q.Label == nil) || (p.TS == nil) != (q.TS == nil) ||
			!sameF(p.Weight, q.Weight) {
			return false
		}
		for d, v := range p.Values {
			if !sameF(v, q.Values[d]) {
				return false
			}
		}
		if p.Label != nil && *p.Label != *q.Label {
			return false
		}
		if p.TS != nil && !sameF(*p.TS, *q.TS) {
			return false
		}
	}
	return true
}

// checkFastPath fails t unless encoding/json accepts a body decodeIngest
// accepted, with the same result bit for bit, and every Values slice is
// its own exact-length slice.
func checkFastPath(t *testing.T, body []byte, got IngestRequest) {
	t.Helper()
	var want IngestRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("decodeIngest accepted %q, encoding/json refuses it: %v", body, err)
	}
	if !sameIngest(got, want) {
		t.Fatalf("decodeIngest(%q) = %+v, encoding/json decodes %+v", body, got, want)
	}
	for i, p := range got.Points {
		if cap(p.Values) != len(p.Values) {
			t.Fatalf("point %d: Values cap %d, len %d", i, cap(p.Values), len(p.Values))
		}
	}
}

func TestDecodeIngestFallsBack(t *testing.T) {
	for _, body := range ingestFallbacks {
		if _, ok := decodeIngest([]byte(body)); ok {
			t.Errorf("decodeIngest(%q) took the fast path, want the encoding/json fallback", body)
		}
	}
}

func TestDecodeIngestCanonical(t *testing.T) {
	for _, body := range append(ingestCanonical, string(benchmarkBody(256, 10))) {
		got, ok := decodeIngest([]byte(body))
		if !ok {
			t.Errorf("decodeIngest(%.80q) fell back, want the fast path", body)
			continue
		}
		checkFastPath(t, []byte(body), got)
	}
}

// FuzzDecodeIngest: whatever decodeIngest accepts, encoding/json accepts
// too and decodes to the same request, bit for bit.
func FuzzDecodeIngest(f *testing.F) {
	f.Add(benchmarkBody(4, 3))
	for _, body := range append(ingestFallbacks, ingestCanonical...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, ok := decodeIngest(body); ok {
			checkFastPath(t, body, got)
		}
	})
}

// TestClientBodiesTakeFastPath: every body the Go client encodes decodes
// on the fast path, to exactly the points it was given. Without this a
// decoder that always fell back would pass every other test.
func TestClientBodiesTakeFastPath(t *testing.T) {
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"processed":0}`))
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -math.MaxFloat64, 1e21, 1e-7, 123456789, 0.1}
	rng := rand.New(rand.NewPCG(1, 2))
	randFloat := func() float64 {
		if rng.IntN(4) == 0 {
			return specials[rng.IntN(len(specials))]
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	for round := 0; round < 50; round++ {
		pts := make([]client.Point, 1+rng.IntN(20))
		dim := 1 + rng.IntN(6)
		for i := range pts {
			p := client.Point{Values: make([]float64, dim)}
			for d := range p.Values {
				p.Values[d] = randFloat()
			}
			if rng.IntN(2) == 0 {
				label := int(rng.Uint64())
				p.Label = &label
			}
			if rng.IntN(2) == 0 {
				p.Weight = randFloat()
			}
			if rng.IntN(2) == 0 {
				ts := randFloat()
				p.TS = &ts
			}
			pts[i] = p
		}
		if _, err := c.Push("s", pts); err != nil {
			t.Fatal(err)
		}
		body := bodies[len(bodies)-1]
		got, ok := decodeIngest(body)
		if !ok {
			t.Fatalf("client body %q fell back to encoding/json", body)
		}
		checkFastPath(t, body, got)
		for i, p := range pts {
			if p.Weight == 0 {
				p.Weight = 0 // omitempty drops -0 too
			}
			want := IngestRequest{Points: []IngestPoint{{Values: p.Values, Label: p.Label, Weight: p.Weight, TS: p.TS}}}
			if !sameIngest(IngestRequest{Points: got.Points[i : i+1]}, want) {
				t.Fatalf("point %d decoded as %+v, pushed %+v", i, got.Points[i], p)
			}
		}
	}
}

// TestIngestValuesNotShared guards against retention: after one HTTP
// ingest, on the fast path and the fallback alike, one retained point
// keeps only its own values alive, and on the fast path a kept point's
// Values slice is exact-length. Every point's values share a backing —
// decodeIngest's one per body, then the batch's pooled values column — so
// this holds only because samplers copy the values of the points they
// retain. When a retained point still aliased a backing shared across
// the batch, one point pinned the whole batch: a prototype decoder that
// shared one backing per body took the end-to-end benchmark's ingest-http
// peak RSS from 37 to 83 MB (+120%).
func TestIngestValuesNotShared(t *testing.T) {
	const n, dim = 64, 256 // 128 KiB of values, 2 KiB per point
	fast := benchmarkBody(n, dim)
	slow := bytes.ReplaceAll(fast, []byte(`"values"`), []byte(`"Values"`))
	heap := func() uint64 {
		// Two cycles: the second frees what the first moved to sync.Pool
		// victim caches.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for name, body := range map[string][]byte{"fast": fast, "fallback": slow} {
		t.Run(name, func(t *testing.T) {
			if _, ok := decodeIngest(body); ok != (name == "fast") {
				t.Fatalf("decodeIngest ok=%v on the %s body", ok, name)
			}
			srv := New(1)
			defer srv.Close()
			createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: n})
			before := heap()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/streams/s/points", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("ingest: status %d body %s", rec.Code, rec.Body)
			}
			// Keep one applied point's values, then drop the stream.
			var kept []float64
			ms, _ := srv.lookup("s")
			ms.sm.View(func(sm core.Sampler) {
				if len(sm.Points()) != n {
					t.Fatalf("sampler holds %d points, want all %d", len(sm.Points()), n)
				}
				for _, p := range sm.Points() {
					if name == "fast" && cap(p.Values) != len(p.Values) {
						t.Errorf("point %d: Values cap %d, len %d", p.Index, cap(p.Values), len(p.Values))
					}
				}
				kept = sm.Points()[0].Values
			})
			ms = nil
			rec = httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/streams/s", nil))
			if rec.Code != http.StatusNoContent {
				t.Fatalf("delete: status %d", rec.Code)
			}
			retained := int64(heap()) - int64(before)
			runtime.KeepAlive(kept)
			if retained > n*dim*8/2 {
				t.Fatalf("one retained point keeps %d bytes alive; the batch's values are %d", retained, n*dim*8)
			}
		})
	}
}

// TestIngestFallbackErrors: bodies the fast path refuses get
// encoding/json's verdict through the handler — the same status and
// error text as a plain json.Decoder over the body.
func TestIngestFallbackErrors(t *testing.T) {
	srv := New(1)
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 64})
	for _, body := range ingestFallbacks {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/streams/s/points", bytes.NewReader([]byte(body))))
		var req IngestRequest
		err := json.NewDecoder(bytes.NewReader([]byte(body))).Decode(&req)
		if err == nil {
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Errorf("%q: status %d, encoding/json accepts it", body, rec.Code)
			}
			continue
		}
		var got struct{ Error string }
		_ = json.Unmarshal(rec.Body.Bytes(), &got)
		if want := "decoding request: " + err.Error(); rec.Code != http.StatusBadRequest || got.Error != want {
			t.Errorf("%q: status %d error %q, want 400 %q", body, rec.Code, got.Error, want)
		}
	}
}

// TestIngestOverLimitIs413: the body is read whole before it is decoded,
// so a JSON value that ends before the limit no longer lets a body past
// the limit through.
func TestIngestOverLimitIs413(t *testing.T) {
	srv := New(1, WithMaxBodyBytes(256))
	defer srv.Close()
	createOn(t, srv, "s", CreateRequest{Policy: "unbiased", Capacity: 8})
	body := `{"points":[{"values":[1]}]}` + strings.Repeat(" ", 256)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/streams/s/points", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d body %s, want 413", rec.Code, rec.Body)
	}
}
