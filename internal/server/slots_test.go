package server

import (
	"net/http"
	"testing"
)

// A create whose config claims more reservoir slots than core.MaxSlots is
// refused with 400 before anything is allocated, and the node keeps
// serving. Without the bound, the first request's preallocation ends the
// process (a fatal out-of-memory error net/http cannot recover) and the
// second allocates a gigabyte of tiers before it fails.
func TestCreateRefusesSlotsOverBound(t *testing.T) {
	ts := newTestServer(t)
	for _, c := range []struct{ name, body string }{
		{"capacity", `{"policy":"unbiased","capacity":1099511627776}`},
		{"tiers", `{"policy":"variable","lambda":0.5,"capacity":1,"tiers":67108864}`},
		{"uncapped", `{"policy":"biased","lambda":1e-9}`},
		{"uncapped-tiers", `{"policy":"biased","lambda":0.01,"tiers":9}`},
		{"window", `{"policy":"window","window":10,"capacity":4194305}`},
	} {
		resp, out := do(t, http.MethodPut, ts.URL+"/streams/"+c.name, []byte(c.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("create %s %s: status %d %v, want 400", c.name, c.body, resp.StatusCode, out)
		}
	}
	if resp, _ := do(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the refused creates: status %d", resp.StatusCode)
	}
	createStream(t, ts.URL, "ok", CreateRequest{Policy: "biased", Lambda: 1e-3, Tiers: 3})
	ingest(t, ts.URL, "ok", floatPoints(10, 0))
	if _, body := do(t, http.MethodGet, ts.URL+"/streams", nil); len(body["streams"].([]any)) != 1 {
		t.Fatalf("streams after the refused creates: %v, want only ok", body)
	}
}
