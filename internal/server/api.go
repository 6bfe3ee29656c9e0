// Package server implements ftspmd, the resilient evaluation service
// over the FTSPM design-space engines: synchronous single-structure
// evaluation plus asynchronous sweep and soak campaigns, served over
// HTTP/JSON on top of the crash-safe campaign runner.
//
// The robustness layer is the point of the package:
//
//   - Admission control: every request class (cheap synchronous
//     evaluates vs heavy campaign jobs) has its own concurrency limit
//     and bounded FIFO queue, so evaluates never starve behind sweeps.
//   - Load shedding: once a class's queue is full, excess requests are
//     rejected immediately with 429 and a Retry-After hint — shed,
//     don't collapse.
//   - Deadlines: every evaluate carries a deadline propagated via
//     context into the simulator hot path, which polls it once per
//     batch of trace events.
//   - Panic isolation: a panicking request answers 500 alone; the
//     process keeps serving.
//   - Circuit breaker: /readyz trips when the error rate spikes or the
//     pool is saturated, steering load balancers away before the
//     backlog grows.
//   - Graceful drain: SIGTERM stops admission, finishes or checkpoints
//     in-flight jobs (campaigns journal every finished sim job, so a
//     drained job resumes byte-identically), and exits 0.
package server

import (
	"encoding/json"
	"time"

	"ftspm/internal/experiments"
	"ftspm/internal/faults"
	"ftspm/internal/resultcache"
)

// EvaluateRequest is the body of POST /v1/evaluate: one workload on one
// structure, evaluated synchronously within the request deadline.
type EvaluateRequest struct {
	// Workload names the evaluated workload (see workloads.Names).
	Workload string `json:"workload"`
	// Structure selects the SPM organization: "ftspm", "sram", "stt",
	// "dmr", or a canonical structure name such as "pure-SRAM".
	Structure string `json:"structure"`
	// Scale multiplies the reference trace length (0 = server default).
	Scale float64 `json:"scale,omitempty"`
	// TimeoutMS bounds the evaluation including queueing (0 = server
	// default; clamped to the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// EvaluateResponse is the reply to a completed evaluate.
type EvaluateResponse struct {
	// Run holds the flattened evaluation metrics.
	Run experiments.RunSummary `json:"run"`
	// ElapsedMS is the service time (queueing included).
	ElapsedMS int64 `json:"elapsed_ms"`

	// cached reports whether the result cache satisfied the request.
	// It travels in the X-Ftspm-Cache response header, never the body:
	// cached and uncached response bodies are byte-identical.
	cached bool
}

// CampaignRequest is the crash-safe campaign block that SweepRequest
// and SoakRequest embed: its fields sit at the top level of either
// JSON body.
type CampaignRequest struct {
	// Workers bounds the campaign's sim worker pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Retries is the per-sim-job retry budget.
	Retries int `json:"retries,omitempty"`
	// JobTimeoutMS is the per-sim-job deadline (0 = none).
	JobTimeoutMS int64 `json:"job_timeout_ms,omitempty"`
	// Checkpoint names the job's journal file inside the server data
	// dir (letters, digits, dot, dash, underscore; no separators).
	// Empty uses "<job-id>.ckpt". Naming it lets a client resume the
	// job across daemon restarts.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Resume skips sim jobs already journaled in Checkpoint (which must
	// be named explicitly).
	Resume bool `json:"resume,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: the full suite × all
// structures as an asynchronous crash-safe campaign job.
type SweepRequest struct {
	// Scale multiplies the reference trace length (0 = default).
	Scale float64 `json:"scale,omitempty"`
	CampaignRequest
}

// SoakRequest is the body of POST /v1/soak: a Monte-Carlo recovery
// stress campaign as an asynchronous job.
type SoakRequest struct {
	// Workload names the soaked workload (default: the case study).
	Workload string `json:"workload,omitempty"`
	// Structures lists the evaluated organizations (default: the
	// requested or default soak structure).
	Structures []string `json:"structures,omitempty"`
	// Trials is the number of independently-seeded runs per structure
	// (0 = default; negative is answered 400).
	Trials int `json:"trials,omitempty"`
	// Scale multiplies the reference trace length (default 0.05;
	// negative is answered 400).
	Scale float64 `json:"scale,omitempty"`
	// Strike is the per-access particle-strike probability, in [0, 1].
	Strike float64 `json:"strike,omitempty"`
	// Seed drives the campaign.
	Seed int64 `json:"seed,omitempty"`
	// NoRecovery runs the detection-only baseline.
	NoRecovery bool `json:"no_recovery,omitempty"`
	// Storm, when non-nil, runs the campaign under the correlated
	// fault storm (faults.StormConfig) instead of the memoryless
	// strike process; Strike is then ignored (the storm's calm
	// intensity is the background rate). Unset numeric fields resolve
	// to the DefaultStorm values.
	Storm *faults.StormConfig `json:"storm,omitempty"`
	// AdaptiveScrub arms the controller's adaptive storm defenses
	// (spm.DefaultAdaptive): scrub escalation with hysteresis,
	// emergency refresh, and storm bypass. Ignored with NoRecovery.
	AdaptiveScrub bool `json:"adaptive_scrub,omitempty"`
	// Lanes caps the packed engine's batch width: 0 auto-packs up to
	// 64 trials per trace pass, 1 forces the scalar simulator, 2..64
	// cap the width; any other value is answered 400. The results are
	// identical either way.
	Lanes int `json:"lanes,omitempty"`
	CampaignRequest
}

// SoakResult is the payload of a finished soak job.
type SoakResult struct {
	// Reports holds one report per requested structure, in order.
	Reports []*experiments.SoakReport `json:"reports"`
	// Campaign carries the salvage status of interrupted or
	// partially-failed campaigns (omitted when clean).
	Campaign *experiments.CampaignStatus `json:"campaign,omitempty"`
}

// JobStatus is the wire form of an asynchronous job, returned by the
// submit endpoints (202) and GET /v1/jobs/{id}.
type JobStatus struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// State is one of queued, running, done, failed, canceled,
	// interrupted. Canceled and interrupted jobs with a checkpoint are
	// resumable: resubmitting with the same parameters, the same
	// checkpoint name, and resume=true continues them byte-identically.
	State string `json:"state"`
	// Error carries the failure text (failed jobs) or the drain/cancel
	// cause (interrupted and canceled jobs).
	Error string `json:"error,omitempty"`
	// Checkpoint is the job's journal file name inside the data dir.
	Checkpoint string `json:"checkpoint,omitempty"`
	// Resumable marks a job whose checkpoint allows continuation.
	Resumable bool `json:"resumable,omitempty"`
	// Result is the job's JSON payload (done jobs, and salvaged partial
	// payloads of interrupted jobs).
	Result json.RawMessage `json:"result,omitempty"`
	// Created/Started/Finished are RFC3339 timestamps ("" if not yet).
	Created  string `json:"created,omitempty"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
}

// JobList is the reply to GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMS mirrors the Retry-After header on 429/503 replies.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// HealthStatus is the body of GET /healthz: liveness plus the load
// signals the fabric coordinator uses for load-aware chunk placement.
type HealthStatus struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	// Breaker mirrors the /readyz circuit-breaker state ("closed" or
	// "open").
	Breaker string `json:"breaker"`
	// InFlightJobs counts executing work units: running async jobs plus
	// fabric chunks.
	InFlightJobs int64 `json:"in_flight_jobs"`
	// Fingerprint is this build's fabric fingerprint
	// (wire.Fingerprint). The coordinator refuses workers whose
	// fingerprint differs from its own.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Evaluate, Campaign, and Fabric report per-class admission
	// backlog.
	Evaluate ClassStatus `json:"evaluate"`
	Campaign ClassStatus `json:"campaign"`
	Fabric   ClassStatus `json:"fabric"`
	// Cache reports the result cache's hit/miss/bypass/eviction
	// counters and tier occupancy (omitted when the cache is disabled).
	Cache *resultcache.Stats `json:"cache,omitempty"`
	// Storm reports the storm-soak counters: campaigns served in storm
	// mode and process-wide packed-engine scalar fallbacks.
	Storm *StormHealth `json:"storm,omitempty"`
}

// StormHealth is the /healthz storm-soak counter block.
type StormHealth struct {
	// Jobs counts soak campaigns served in storm mode.
	Jobs uint64 `json:"jobs"`
	// ScalarFallbacks counts packed-engine declines that fell back to
	// the scalar simulator (process-wide, all causes).
	ScalarFallbacks uint64 `json:"scalar_fallbacks"`
	// ScalarFallbackCauses splits ScalarFallbacks by cause.
	ScalarFallbackCauses experiments.FallbackCounts `json:"scalar_fallback_causes"`
}

// ReadyStatus is the body of GET /readyz.
type ReadyStatus struct {
	Ready    bool        `json:"ready"`
	Draining bool        `json:"draining"`
	Breaker  string      `json:"breaker"`
	Evaluate ClassStatus `json:"evaluate"`
	Campaign ClassStatus `json:"campaign"`
}

// ClassStatus reports one admission class's occupancy.
type ClassStatus struct {
	Active   int    `json:"active"`
	Queued   int    `json:"queued"`
	Limit    int    `json:"limit"`
	QueueCap int    `json:"queue_cap"`
	Shed     uint64 `json:"shed"`
}

// fmtTime renders a timestamp for the wire ("" for the zero time).
func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
