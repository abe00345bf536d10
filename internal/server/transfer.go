package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"biasedres/internal/durable"
)

// Stream transfer: the data-plane half of federated live migration. A
// coordinator draining a node fetches each resident stream as one
// self-verifying durable.Transfer blob (GET) and installs it on the
// stream's new placement (POST). The blob is a live-cut checkpoint — the
// sampler marshaled under its lock with the (next, dim) bookkeeping
// captured coherently — with an empty journal tail, so installing it and
// re-marshaling reproduces the source's snapshot bytes exactly (the
// byte-identity the migration tests assert). The format also carries a
// tail for chains shipped straight off disk; install replays it through
// the same path startup recovery uses.

// handleTransferGet is GET /streams/{name}/transfer: export the stream
// as a transfer blob. Points sitting in the async ingest queue are not in
// the cut (exactly like GET /snapshot); the X-Biasedres-Pending header
// reports how many, so a migrating caller can wait for quiescence when it
// needs a loss-free cut.
func (s *Server) handleTransferGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ms, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	ck, err := s.cut(name, ms, nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "transfer: %v", err)
		return
	}
	out, err := durable.EncodeTransfer(durable.Transfer{Checkpoint: ck})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "transfer: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Biasedres-Pending", strconv.FormatInt(ms.pending.Load(), 10))
	_, _ = w.Write(out)
}

// handleTransferPost is POST /streams/{name}/transfer: install a
// transfer blob as a new stream under the path name. The blob's embedded
// meta supplies the configuration; its name is advisory (a transfer can
// install under a different name). Installing over an existing stream is
// refused with 409 — migration ships to nodes that do not hold the
// stream, and an operator who really wants to overwrite can DELETE first.
func (s *Server) handleTransferPost(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		bodyError(w, err, "reading body: %v")
		return
	}
	tr, err := durable.DecodeTransfer(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "transfer: %v", err)
		return
	}
	// The installed stream is durable from its first moment: one
	// checkpoint holding the replayed state, above the shipped seq.
	ms, code, err := s.install(name, createRequestOf(tr.Checkpoint.Meta), &tr, tr.Checkpoint.Seq+1)
	if err != nil {
		httpError(w, code, "transfer: %v", err)
		return
	}
	processed, size := ms.sm.Processed(), ms.sm.Len()
	if s.log != nil {
		s.log.Info("stream installed from transfer", "stream", name,
			"processed", processed, "size", size, "tail_records", len(tr.Tail))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(map[string]any{"installed": name, "processed": processed, "size": size})
}
