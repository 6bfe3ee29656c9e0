package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"

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

// MapEntry is one (workload, structure) placement (see
// experiments.MapEntry, where it is defined so that each cache entry
// can hold its own encoding).
type MapEntry = experiments.MapEntry

// MapResponse is the reply to a completed map batch. Entries are
// ordered workload-major in request order. CacheHits/CacheMisses
// describe this request only; they live outside the entries so the
// placement artifact itself stays identical across warm and cold runs.
type MapResponse struct {
	Entries     []MapEntry `json:"entries"`
	CacheHits   int        `json:"cache_hits"`
	CacheMisses int        `json:"cache_misses"`
	// ElapsedMS is the service time of the batch, measured from the
	// moment it holds its evaluate slot: admission queueing is not
	// included.
	ElapsedMS int64 `json:"elapsed_ms"`
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
	var (
		entries      []MapEntry // NoCache: encoded by writeJSON
		served       [][]byte   // cached: each entry's encoded-once fragment
		hits, misses int
	)
	if n := len(names) * len(structures); s.cache == nil {
		entries = make([]MapEntry, 0, n)
	} else {
		served = make([][]byte, 0, n)
	}
	for _, name := range names {
		for _, st := range structures {
			var hit bool
			var err error
			if s.cache == nil {
				var out experiments.Outcome
				if out, err = experiments.EvaluateByNameContext(ctx, name, st, opts); err == nil {
					entries = append(entries, MapEntry{
						Workload:  name,
						Structure: st.String(),
						Mapping:   out.Mapping,
						Run:       experiments.SummarizeOutcome(out),
					})
				}
			} else {
				var sv *experiments.Served
				if sv, hit, err = experiments.EvaluateServed(ctx, s.cache, name, st, opts); err == nil {
					served = append(served, sv.Entry)
				}
			}
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
				hits++
			} else {
				misses++
			}
		}
	}
	s.brk.RecordOutcome(false)
	elapsed := s.nowFn().Sub(start).Milliseconds()
	if s.cache == nil {
		writeJSON(w, http.StatusOK, MapResponse{Entries: entries, CacheHits: hits, CacheMisses: misses, ElapsedMS: elapsed})
		return
	}
	writeBody(w, mapBody(served, hits, misses, elapsed))
}

// mapBody joins the entries' encoded-once fragments
// (experiments.Served.Entry) with the per-request fields into the
// bytes writeJSON writes for the same MapResponse.
func mapBody(entries [][]byte, hits, misses int, elapsedMS int64) []byte {
	n := 80 + 3*20 // the fixed text and three decimal ints
	for _, e := range entries {
		n += len(e) + 6
	}
	b := append(make([]byte, 0, n), "{\n  \"entries\": ["...)
	for i, e := range entries {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, "\n    "...), e...)
	}
	if len(entries) > 0 {
		b = append(b, "\n  "...)
	}
	b = strconv.AppendInt(append(b, "],\n  \"cache_hits\": "...), int64(hits), 10)
	b = strconv.AppendInt(append(b, ",\n  \"cache_misses\": "...), int64(misses), 10)
	b = strconv.AppendInt(append(b, ",\n  \"elapsed_ms\": "...), elapsedMS, 10)
	return append(b, "\n}\n"...)
}
