package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/fabric/wire"
)

// This file serves POST /v1/fabric: one chunk of a distributed
// campaign, executed locally and streamed back as NDJSON — one
// wire.Line per finished job, flushed immediately so the coordinator's
// lease watchdog sees liveness, then a trailer line. The endpoint is
// deliberately stateless: no checkpoint is written here (the
// coordinator owns the campaign journal), so a worker that dies
// mid-chunk loses nothing but compute.

// handleFabric executes one campaign chunk and streams its results.
func (s *Server) handleFabric(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining", s.cfg.RetryAfter)
		return
	}
	var req wire.Request
	// Fabric chunks carry job-ID lists, so the body cap is wider than
	// the interactive endpoints'.
	if err := decodeBodyN(w, r, &req, 8<<20); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	src, err := req.Source()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if src.Hash != req.ConfigHash {
		// Version skew: this worker derives different jobs from the
		// same options. Computing anyway would poison the merged report.
		writeError(w, http.StatusConflict, fmt.Sprintf(
			"config hash mismatch: worker derives %s, coordinator sent %s",
			src.Hash, req.ConfigHash), 0)
		return
	}
	if len(req.JobIDs) == 0 {
		writeError(w, http.StatusBadRequest, "empty job list", 0)
		return
	}
	// A worker's cache serves fabric chunks too: jobs this process (or
	// a previous run of this daemon, via the disk tier) already
	// computed stream back without re-executing. Chaos corruption, when
	// enabled, applies at emit time — after the cache — so the drill
	// corrupts every emission whether or not it was memoized.
	jobs, err := src.Jobs(req.JobIDs, s.cache)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}

	sl, admitErr := s.fabLim.admit()
	if admitErr != nil {
		s.brk.RecordShed()
		writeError(w, http.StatusTooManyRequests, "fabric queue full",
			s.fabLim.retryAfter(s.cfg.RetryAfter))
		return
	}
	if err := sl.wait(r.Context()); err != nil {
		s.brk.RecordShed()
		writeError(w, http.StatusServiceUnavailable, "coordinator gone while queued", 0)
		return
	}
	defer sl.release()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// The chunk context: canceled by coordinator disconnect or server
	// drain. Either way campaign.Run drains gracefully — in-flight sim
	// jobs finish (and stream, if the connection is still up).
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stop := context.AfterFunc(s.baseCtx, func() { cancel(errDraining) })
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var streamErr error
	emit := func(line wire.Line) {
		if streamErr != nil {
			return
		}
		if streamErr = enc.Encode(line); streamErr == nil && flusher != nil {
			flusher.Flush()
		}
	}

	cfg := campaign.Config{
		Workers:    req.Parallel,
		JobTimeout: time.Duration(req.JobTimeoutMS) * time.Millisecond,
		Attempts:   req.Retries + 1,
		OnJobResult: func(res campaign.Result[json.RawMessage]) {
			if s.cfg.ChaosCorruptFrac > 0 && res.Status == campaign.StatusDone &&
				chaosPick(res.ID, s.cfg.ChaosCorruptFrac) {
				res.Value = corruptPayload(res.Value)
			}
			// The attestation sum is computed over the exact bytes
			// emitted — after any chaos corruption, so the drill models a
			// compute-level SDC (wrong value, honest checksums) that only
			// audit re-execution can catch, not a wire flip.
			sum, _, err := campaign.SumResult(res)
			if err != nil {
				sum = "" // unattested; the coordinator refuses and re-places
			}
			emit(wire.Line{Result: &res, Sum: sum, Fp: s.cfg.Fingerprint})
		},
	}
	rep, runErr := campaign.Run(ctx, cfg, jobs)

	trailer := wire.Trailer{}
	if rep != nil {
		trailer.Completed = rep.Completed
		trailer.Failed = rep.Failed
	}
	if runErr != nil {
		trailer.Error = runErr.Error()
		// An interrupted chunk is the coordinator's to re-place, not a
		// worker fault; anything else counts against the breaker.
		if !errors.Is(runErr, campaign.ErrIncomplete) {
			s.brk.RecordOutcome(true)
		}
	} else {
		s.brk.RecordOutcome(false)
	}
	emit(wire.Line{Done: &trailer})
}

// chaosPick deterministically selects jobs for chaos corruption: the
// same job ID is corrupted (or not) on every execution, so a drill's
// divergences are reproducible.
func chaosPick(id string, frac float64) bool {
	h := fnv.New32a()
	h.Write([]byte("chaos|" + id))
	return float64(h.Sum32())/float64(^uint32(0)) < frac
}

// corruptPayload flips the low bit of the first decimal digit in a JSON
// payload — a minimal, JSON-valid bit flip, the byzantine-worker shape
// the integrity drill injects.
func corruptPayload(v json.RawMessage) json.RawMessage {
	out := append(json.RawMessage(nil), v...)
	for i, b := range out {
		if b >= '0' && b <= '9' {
			out[i] ^= 0x01
			return out
		}
	}
	return out
}

// decodeBodyN strictly decodes a JSON request body with a caller-chosen
// size cap.
func decodeBodyN(w http.ResponseWriter, r *http.Request, v any, n int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, n))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
