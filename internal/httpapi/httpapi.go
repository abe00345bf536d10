// Package httpapi is the HTTP contract the data node (internal/server),
// the coordinator (internal/federation) and internal/client share: the
// error body and its writer, the JSON writer, the bounded body reader,
// and each body one of them writes and another reads. Bodies declare
// their fields in sorted key order, the order encoding/json gives a map,
// so a typed body encodes to the bytes of the map it replaced.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"biasedres/internal/core"
)

// ErrorBody is the body of every JSON error answer.
type ErrorBody struct {
	Error string `json:"error"`
}

// JSON answers code with v encoded as JSON.
func JSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Error answers code with an ErrorBody holding format applied to args.
func Error(w http.ResponseWriter, code int, format string, args ...any) {
	JSON(w, code, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// ReadJSON decodes r's body into v, reading at most limit bytes. On
// failure it answers through BodyError with format and reports false.
func ReadJSON(w http.ResponseWriter, r *http.Request, limit int64, v any, format string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err != nil {
		BodyError(w, err, format)
	}
	return err == nil
}

// BodyError answers a request body that failed to read or decode: 413
// when it exceeded its http.MaxBytesReader limit, else 400 with err
// formatted by format.
func BodyError(w http.ResponseWriter, err error, format string) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		Error(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", mbe.Limit)
		return
	}
	Error(w, http.StatusBadRequest, format, err)
}

// Health is a data node's GET /healthz body: liveness, stream and point
// counts, and the node's wire-ingest address when it listens on one.
type Health struct {
	Points   uint64 `json:"points"`
	Status   string `json:"status"`
	Streams  int    `json:"streams"`
	WireAddr string `json:"wire_addr,omitempty"`
}

// StreamList is a data node's GET /streams body.
type StreamList struct {
	Streams []string `json:"streams"`
}

// Stats is the GET /streams/{name} body: the stream's configuration and
// reservoir state, the points its async ingest queue holds, and, for a
// multi-horizon stream, one entry per tier.
type Stats struct {
	Capacity  int              `json:"capacity"`
	Dim       int              `json:"dim"`
	Fill      float64          `json:"fill"`
	Lambda    float64          `json:"lambda"`
	Pending   int64            `json:"pending"`
	Policy    string           `json:"policy"`
	Processed uint64           `json:"processed"`
	Size      int              `json:"size"`
	Tiers     []core.TierStats `json:"tiers,omitempty"`
}

// Ingested is the 200 answer of POST /streams/{name}/points: the batch
// size and, from a data node, the stream's processed count after it (a
// coordinator's points land on several shards, so it has none).
type Ingested struct {
	Ingested  int    `json:"ingested"`
	Processed uint64 `json:"processed,omitempty"`
}

// Queued is the 202 answer of POST /streams/{name}/points on a data node
// running async ingest: the batch size and the stream's pending points
// with the batch queued.
type Queued struct {
	Pending int64 `json:"pending"`
	Queued  int   `json:"queued"`
}
