package server

import (
	"context"
	"errors"
	"net/http"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/workloads"
)

// This file serves POST /v1/map: "place this program" as a batch,
// answered by composing content-addressed cache entries. Each
// requested (workload, structure) pair resolves through the same key
// space /v1/evaluate and sweep jobs populate, so a daemon that has run
// a sweep — or served the pairs one at a time — answers the whole
// batch from memo lookups and only computes the misses. This is the
// "mapping as a service" shape from the roadmap: the MDA mapping is a
// static offline decision, so serving it is a pure lookup problem.

// MapRequest is the body of POST /v1/map. Empty Workloads means the
// full suite; empty Structures means all evaluated organizations.
type MapRequest struct {
	Workloads  []string `json:"workloads,omitempty"`
	Structures []string `json:"structures,omitempty"`
	// Scale multiplies the reference trace length (0 = server default).
	Scale float64 `json:"scale,omitempty"`
	// TimeoutMS bounds the whole batch (0 = server default; clamped).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MapEntry is one (workload, structure) placement. The fields are
// derived purely from the evaluation outcome, so an entry is
// byte-identical whether it was computed for this request or served
// from the cache.
type MapEntry struct {
	Workload  string `json:"workload"`
	Structure string `json:"structure"`
	// Mapping is the MDA decision: the block placement, the per-block
	// decision trail, and the estimated overheads.
	Mapping core.Mapping `json:"mapping"`
	// Run holds the flattened evaluation metrics for the placement.
	Run experiments.RunSummary `json:"run"`
}

// MapResponse is the reply to a completed map batch. Entries are
// ordered workload-major in request order. CacheHits/CacheMisses
// describe this request only; they live outside the entries so the
// placement artifact itself stays identical across warm and cold runs.
type MapResponse struct {
	Entries     []MapEntry `json:"entries"`
	CacheHits   int        `json:"cache_hits"`
	CacheMisses int        `json:"cache_misses"`
	ElapsedMS   int64      `json:"elapsed_ms"`
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining", s.cfg.RetryAfter)
		return
	}
	var req MapRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	names := req.Workloads
	if len(names) == 0 {
		names = workloads.Names()
	}
	structures := make([]core.Structure, 0, len(req.Structures))
	for _, name := range req.Structures {
		st, err := core.ParseStructure(name)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
		structures = append(structures, st)
	}
	if len(structures) == 0 {
		structures = core.Structures()
	}
	opts := experiments.Options{Scale: req.Scale}
	if opts.Scale == 0 {
		opts.Scale = s.cfg.DefaultScale
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()

	// The batch holds one evaluate slot for its whole composition: it
	// competes with single evaluates as one unit of that class rather
	// than flooding the limiter with its fan-out.
	sl, admitErr := s.evalLim.admit()
	if admitErr != nil {
		s.brk.RecordShed()
		writeError(w, http.StatusTooManyRequests, "evaluate queue full",
			s.evalLim.retryAfter(s.cfg.RetryAfter))
		return
	}
	if err := sl.wait(ctx); err != nil {
		s.brk.RecordShed()
		writeError(w, http.StatusServiceUnavailable, "deadline exceeded while queued",
			s.evalLim.retryAfter(s.cfg.RetryAfter))
		return
	}
	defer sl.release()

	start := s.nowFn()
	resp := MapResponse{Entries: make([]MapEntry, 0, len(names)*len(structures))}
	for _, name := range names {
		for _, st := range structures {
			out, hit, err := experiments.EvaluateCachedContext(ctx, s.cache, name, st, opts)
			if err != nil {
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					s.brk.RecordOutcome(true)
					writeError(w, http.StatusGatewayTimeout, "map deadline exceeded", 0)
				case errors.Is(err, context.Canceled):
					writeError(w, http.StatusServiceUnavailable, "map canceled", 0)
				case errors.Is(err, experiments.ErrUnknownWorkload):
					writeError(w, http.StatusBadRequest, err.Error(), 0)
				default:
					s.brk.RecordOutcome(true)
					writeError(w, http.StatusInternalServerError, err.Error(), 0)
				}
				return
			}
			if hit {
				resp.CacheHits++
			} else {
				resp.CacheMisses++
			}
			resp.Entries = append(resp.Entries, MapEntry{
				Workload:  name,
				Structure: st.String(),
				Mapping:   out.Mapping,
				Run:       experiments.SummarizeOutcome(out),
			})
		}
	}
	s.brk.RecordOutcome(false)
	resp.ElapsedMS = s.nowFn().Sub(start).Milliseconds()
	writeJSON(w, http.StatusOK, resp)
}
