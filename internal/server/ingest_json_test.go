package server

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"biasedres/internal/core"
	"biasedres/internal/wire"
)

// ingestFallbacks are bodies the node hands to encoding/json:
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

// decodeIngest decodes body on the one-pass canonical path alone,
// reporting false where the node hands the body to encoding/json.
func decodeIngest(body []byte) (*wire.Frame, bool) {
	f := new(wire.Frame)
	return f, wire.DecodeCanonical(body, f)
}

// FuzzDecodeIngest drives arbitrary bodies through the node's HTTP ingest:
// decode, check and admission. A body is applied whole, advancing the
// stream by exactly the points encoding/json decodes from it, or refused
// with 400 and nothing consumed.
func FuzzDecodeIngest(f *testing.F) {
	f.Add(benchmarkBody(4, 3))
	for _, body := range append(ingestFallbacks, ingestCanonical...) {
		f.Add([]byte(body))
	}
	srv := New(1)
	defer srv.Close()
	if _, _, err := srv.install("s", CreateRequest{Policy: "unbiased", Capacity: 16}, nil, 1); err != nil {
		f.Fatal(err)
	}
	ms, _ := srv.lookup("s")
	f.Fuzz(func(t *testing.T, body []byte) {
		before, processed := readAdmission(ms), ms.sm.Processed()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/streams/s/points", bytes.NewReader(body)))
		var req IngestRequest
		jsonErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		switch got := ms.sm.Processed(); rec.Code {
		case http.StatusOK:
			if jsonErr != nil {
				t.Fatalf("%q: applied a body encoding/json refuses: %v", body, jsonErr)
			}
			if want := processed + uint64(len(req.Points)); got != want {
				t.Fatalf("%q: processed %d -> %d, want %d", body, processed, got, want)
			}
		case http.StatusBadRequest:
			if after := readAdmission(ms); after != before || got != processed {
				t.Fatalf("%q: a refused body moved the stream: %+v -> %+v, processed %d -> %d", body, before, after, processed, got)
			}
		default:
			t.Fatalf("%q: status %d body %s", body, rec.Code, rec.Body)
		}
	})
}

// TestIngestValuesNotShared guards against retention: after one HTTP
// ingest, on the fast path and the fallback alike, one retained point
// keeps only its own values alive, and on the fast path a kept point's
// Values slice is exact-length. Every point's values share one backing,
// the values column of the batch's pooled frame, so this holds only
// because samplers copy the values of the points they retain. When a
// retained point still aliased a backing shared across the batch, one
// point pinned the whole batch: a prototype decoder that shared one
// backing per body took the end-to-end benchmark's ingest-http peak RSS
// from 37 to 83 MB (+120%).
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
