package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"ebv"
)

// MutationItem is one edge mutation in the JSON request body.
type MutationItem struct {
	// Op is "insert" or "delete".
	Op string `json:"op"`
	// Src and Dst are the edge's global vertex ids.
	Src int64 `json:"src"`
	Dst int64 `json:"dst"`
}

// MutationRequest is the POST /v1/graphs/{g}/mutations body, the only
// form a batch takes on the wire: JSON, whatever the Content-Type. A body
// that does not decode as one gets a 400 and applies nothing.
type MutationRequest struct {
	Mutations []MutationItem `json:"mutations"`
	// TimeoutMS bounds the batch end to end (0 selects the server
	// default; values above the server cap are clamped to it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MutationResponse is the success body: the graph name plus the batch's
// ApplyResult (epoch, per-part patch breakdown, RF drift).
type MutationResponse struct {
	Graph string `json:"graph"`
	ebv.ApplyResult
}

// maxMutationBody bounds a mutation request body.
const maxMutationBody = 64 << 20

// decodeMutationBody parses the JSON request body.
func decodeMutationBody(w http.ResponseWriter, r *http.Request) ([]ebv.Mutation, int, error) {
	var req MutationRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutationBody)).Decode(&req); err != nil {
		return nil, 0, fmt.Errorf("bad mutation request: %w", err)
	}
	muts := make([]ebv.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		var op ebv.MutationOp
		switch m.Op {
		case "insert":
			op = ebv.OpInsert
		case "delete":
			op = ebv.OpDelete
		default:
			return nil, 0, fmt.Errorf("mutation %d: unknown op %q (want insert or delete)", i, m.Op)
		}
		if m.Src < 0 || m.Dst < 0 || m.Src > math.MaxUint32 || m.Dst > math.MaxUint32 {
			return nil, 0, fmt.Errorf("mutation %d: edge (%d,%d) outside the vertex-id space 0..%d",
				i, m.Src, m.Dst, uint32(math.MaxUint32))
		}
		muts[i] = ebv.Mutation{Op: op, Src: ebv.VertexID(m.Src), Dst: ebv.VertexID(m.Dst)}
	}
	return muts, req.TimeoutMS, nil
}

// handleMutations is POST /v1/graphs/{g}/mutations: decode → admit (the
// jobs' admission path: a batch competes with queries for the same queue
// and run slots) → Session.Apply → respond.
func (s *Server) handleMutations(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.metrics.rejected.Inc("draining")
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	name := r.PathValue("g")
	if !s.cache.hasGraph(name) {
		httpError(w, http.StatusNotFound, "%v %q", ErrUnknownGraph, name)
		return
	}
	muts, timeoutMS, err := decodeMutationBody(w, r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	what := "mutation batch on " + name
	ctx, handle, _, release := s.admit(w, r, name, timeoutMS, what)
	if release == nil {
		return
	}
	defer release()

	res, err := handle.session.Apply(ctx, muts)
	if err != nil {
		s.failed(w, what, err)
		return
	}
	s.metrics.liveBatches.Inc("")
	s.metrics.liveMutations.Add("insert", int64(res.Inserted))
	s.metrics.liveMutations.Add("delete", int64(res.Deleted))
	if res.FullRebuild {
		s.metrics.liveRebuilds.Inc("")
	} else {
		s.metrics.livePatches.Inc("")
	}
	s.metrics.liveRF.Set(name, res.RF)
	s.metrics.liveDrift.Set(name, res.Drift)
	needs := 0.0
	if res.NeedsRepartition {
		needs = 1
	}
	s.metrics.liveNeedsRep.Set(name, needs)
	writeJSON(w, MutationResponse{Graph: name, ApplyResult: *res})
}
