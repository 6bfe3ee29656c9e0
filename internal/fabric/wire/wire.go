// Package wire defines the fabric's worker protocol: the request a
// coordinator POSTs to a worker's /v1/fabric endpoint and the NDJSON
// lines the worker streams back. It lives below both internal/server
// (which serves the endpoint) and internal/fabric (which drives it), so
// neither imports the other.
//
// The protocol is deliberately thin. The coordinator never ships job
// code — it ships the campaign's experiments.CampaignSpec plus a list
// of job IDs, and the worker re-derives the same experiments.JobSource
// locally (CampaignSpec.Source). The config hash pins both sides to
// the same derivation: a worker whose source hashes differently
// (version skew, diverging defaults) refuses the chunk with 409
// instead of silently computing different results.
package wire

import (
	"encoding/json"

	"ftspm/internal/campaign"
	"ftspm/internal/experiments"
)

// Request is the body of POST /v1/fabric: one chunk of a campaign's
// job list, to be executed and streamed back line by line.
type Request struct {
	// CampaignSpec describes the campaign; its fields sit at the top
	// level of the JSON body.
	experiments.CampaignSpec
	// ConfigHash is the coordinator's campaign config hash. The worker
	// re-derives its own from the spec above and answers 409 on
	// mismatch.
	ConfigHash string `json:"config_hash"`
	// JobIDs lists the jobs of this chunk, a subset of the campaign's
	// job list. Unknown IDs are a 400.
	JobIDs []string `json:"job_ids"`
	// Parallel bounds the worker's sim pool for this chunk (0 =
	// GOMAXPROCS).
	Parallel int `json:"parallel,omitempty"`
	// Retries and JobTimeoutMS bound each sim job as in the local
	// campaign runner.
	Retries      int   `json:"retries,omitempty"`
	JobTimeoutMS int64 `json:"job_timeout_ms,omitempty"`
}

// JobResult is one finished job in journal form — exactly the record
// the campaign checkpoint stores, so the coordinator can append it to
// its own journal verbatim.
type JobResult = campaign.Result[json.RawMessage]

// Line is one NDJSON line of the worker's streamed response: a job
// result, or the trailer that marks the chunk complete. A stream that
// ends without a trailer was cut mid-chunk; the coordinator re-queues
// whatever it has not seen.
type Line struct {
	Result *JobResult `json:"result,omitempty"`
	Done   *Trailer   `json:"done,omitempty"`
	// Sum attests a Result line: the canonical SHA-256 of the marshaled
	// result (campaign.SumBytes over the exact bytes the worker
	// journals). The coordinator re-derives the sum on receipt; a
	// mismatch means the payload changed between the worker's compute
	// and the coordinator's merge — a transport-grade failure, never a
	// merge.
	Sum string `json:"sum,omitempty"`
	// Fp is the worker's build fingerprint (see Fingerprint). The
	// coordinator refuses lines from a worker whose fingerprint differs
	// from its own: version skew means "the same job ID" may not mean
	// the same computation.
	Fp string `json:"fp,omitempty"`
}

// Trailer closes a chunk stream.
type Trailer struct {
	// Completed and Failed count this chunk's finished jobs by status.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Error carries a worker-side campaign error (e.g. a drain caught
	// the chunk mid-run); jobs missing from the stream are re-queued by
	// the coordinator either way.
	Error string `json:"error,omitempty"`
}
