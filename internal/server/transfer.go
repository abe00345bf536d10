package server

import (
	"errors"
	"io"
	"net/http"
	"strconv"

	"biasedres/internal/durable"
	"biasedres/internal/httpapi"
)

// Stream transfer: the data-plane half of federated live migration. A
// coordinator draining a node fetches each resident stream as checkpoint
// file bytes (GET) and installs them on the stream's new placement
// (POST). A checkpoint is the one persisted form of a stream: the body is
// exactly what durable.EncodeCheckpoint writes to a .ckpt file, so a
// checkpoint file read off a node's disk installs as is, and POST /restore
// takes the same bytes into a stream that exists. The GET body is a live
// cut — the sampler marshaled under its lock with the (next, dim)
// bookkeeping captured coherently — so installing it and re-marshaling
// reproduces the source's snapshot bytes exactly (the byte-identity the
// migration tests assert). A journal tail is never shipped: only startup
// recovery replays one.

// handleTransferGet is GET /streams/{name}/transfer, the one export of a
// stream: a live cut as checkpoint file bytes. Points sitting in the async
// ingest queue are not in the cut; the X-Biasedres-Pending header reports
// how many, so a migrating caller can wait for quiescence when it needs a
// loss-free cut. X-Biasedres-Next-Index carries the cut's last assigned
// arrival index.
func (s *Server) handleTransferGet(w http.ResponseWriter, _ *http.Request, ms *managedStream) {
	ck, err := s.cut(ms, nil)
	var out []byte
	if err == nil {
		out, err = durable.EncodeCheckpoint(ck)
	}
	if err != nil {
		httpapi.Error(w, http.StatusInternalServerError, "export: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Biasedres-Next-Index", strconv.FormatUint(ck.Next, 10))
	w.Header().Set("X-Biasedres-Pending", strconv.FormatInt(ms.pending.Load(), 10))
	_, _ = w.Write(out)
}

// readCheckpoint reads and decodes the checkpoint body of POST /transfer
// and POST /restore, answering 413 or 400 (prefixed with op) on failure.
// A body that is no checkpoint at all is most likely a bare sampler
// snapshot, the body GET /snapshot served before it was retired.
func (s *Server) readCheckpoint(w http.ResponseWriter, r *http.Request, op string) (durable.Checkpoint, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		httpapi.BodyError(w, err, "reading body: %v")
		return durable.Checkpoint{}, false
	}
	ck, err := durable.DecodeCheckpoint(body)
	if errors.Is(err, durable.ErrNotCheckpoint) {
		err = errors.New("the body is not a BRESCKP1 checkpoint; a bare sampler snapshot " +
			"(the retired GET /snapshot body) is refused: export the stream with GET /streams/{name}/transfer")
	}
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "%s: %v", op, err)
	}
	return ck, err == nil
}

// handleTransferPost is POST /streams/{name}/transfer: install checkpoint
// bytes as a new stream under the path name. The checkpoint's config
// supplies the configuration; its name is advisory (a checkpoint can
// install under a different name). A checkpoint whose (next, dim)
// bookkeeping contradicts its own sampler is refused with 400. Installing
// over an existing stream is refused with 409 — migration ships to nodes
// that do not hold the stream, and an operator who really wants to
// overwrite can DELETE first, or POST the bytes to /restore.
func (s *Server) handleTransferPost(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ck, ok := s.readCheckpoint(w, r, "transfer")
	if !ok {
		return
	}
	// The installed stream is durable from its first moment: one
	// checkpoint holding the shipped state, above the shipped seq.
	ms, code, err := s.install(name, ck.Config, &durable.Recovered{Checkpoint: ck}, ck.Seq+1)
	if err != nil {
		httpapi.Error(w, code, "transfer: %v", err)
		return
	}
	processed, size := ms.sm.Processed(), ms.sm.Len()
	if s.log != nil {
		s.log.Info("stream installed from transfer", "stream", name, "processed", processed, "size", size)
	}
	httpapi.JSON(w, http.StatusCreated, map[string]any{"installed": name, "processed": processed, "size": size})
}
