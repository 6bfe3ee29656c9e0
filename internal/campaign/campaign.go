// Package campaign is a crash-safe runner for long experiment
// campaigns: a bounded worker pool that executes independent jobs with
// panic isolation, per-job deadlines, a bounded retry-with-backoff
// budget, an append-only JSONL checkpoint for resumable runs, and
// graceful drain on cancellation.
//
// Jobs return their results as raw JSON, exactly the bytes the
// checkpoint journals; the sweep and soak job sources in
// internal/experiments build them, and decode the finished values when
// they assemble their reports. Both executors — Run here, and the
// distributed fabric coordinator — record finished jobs through one
// Ledger. The contract that makes interrupted campaigns cheap instead
// of fatal:
//
//   - Every job has a deterministic ID. A finished job — completed or
//     failed-permanent — is journaled to the checkpoint with its
//     result before it counts, and a resumed run skips it, so the
//     final report of an interrupted-then-resumed campaign is
//     byte-identical to an uninterrupted one.
//   - A worker panic is recovered into a per-job error carrying the
//     stack; the poisoned job fails alone while the campaign completes.
//   - Cancelling the context (e.g. SIGINT/SIGTERM via SignalContext)
//     stops dispatching new jobs but lets in-flight jobs finish and be
//     journaled; Run then reports the remaining jobs as pending and
//     returns an error wrapping ErrIncomplete.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Status classifies a finished job in the report and the checkpoint.
type Status string

const (
	// StatusDone marks a job that produced a result.
	StatusDone Status = "done"
	// StatusFailed marks a job that exhausted its retry budget
	// (failed-permanent); it is journaled and never retried on resume.
	StatusFailed Status = "failed"
	// StatusInvalidated is a journal tombstone, never a live result: it
	// revokes an earlier record for the same job (the fabric writes one
	// when a worker is convicted of returning divergent results), so a
	// resumed run re-executes the job instead of trusting the revoked
	// record.
	StatusInvalidated Status = "invalidated"
)

// Job is one unit of work. Run receives a context carrying only the
// per-job deadline (never the campaign's cancellation: graceful drain
// lets in-flight jobs finish), and returns its result as JSON.
type Job struct {
	// ID is the job's deterministic identity; it keys the checkpoint,
	// so it must be stable across runs and unique within the campaign.
	ID string
	// Run executes the job.
	Run func(ctx context.Context) (json.RawMessage, error)
}

// Result is one finished job: the journal record and the report entry.
// Every campaign runs with R = json.RawMessage; the type parameter
// remains only because the benchmark harness spells that type out.
type Result[R any] struct {
	ID       string `json:"id"`
	Status   Status `json:"status"`
	Attempts int    `json:"attempts"`
	// Value is the job's result (StatusDone only).
	Value R `json:"value"`
	// Err is the final attempt's error text (StatusFailed only).
	Err string `json:"error,omitempty"`
	// Stack is the recovered goroutine stack when the final attempt
	// panicked.
	Stack string `json:"stack,omitempty"`
	// Resumed marks results loaded from the checkpoint rather than
	// executed in this run.
	Resumed bool `json:"-"`
	// Cause is the final attempt's error value for live (non-resumed)
	// failures; resumed failures only retain the Err text.
	Cause error `json:"-"`
}

// Config parameterizes Run. The zero value runs with GOMAXPROCS
// workers, one attempt per job, no deadline, and no checkpoint.
type Config struct {
	// Workers bounds the worker pool (default GOMAXPROCS, capped at
	// the job count).
	Workers int
	// JobTimeout is the per-attempt context deadline (0 = none). Jobs
	// must observe their context for the deadline to take effect.
	JobTimeout time.Duration
	// Attempts is the per-job attempt budget before the job is
	// recorded as failed-permanent (default 1, i.e. no retries).
	Attempts int
	// Backoff is the sleep before the first retry, doubling per
	// subsequent retry (default 100ms).
	Backoff time.Duration
	// CheckpointPath, when non-empty, journals every finished job to
	// this append-only JSONL file (each record is written and fsynced
	// before the job counts as finished).
	CheckpointPath string
	// Resume loads CheckpointPath and skips journaled jobs. The
	// journal's config hash must match ConfigHash — a mismatch is a
	// hard error, never silent reuse. Resume without CheckpointPath
	// is a usage error.
	Resume bool
	// ConfigHash fingerprints the campaign configuration (see
	// HashJSON); required when CheckpointPath is set.
	ConfigHash string
	// OnJobResult, when non-nil, observes every finished job's result
	// after it is journaled — live results only; resumed ones are
	// already in the caller's hands. Called from the collector, never
	// concurrently. This is the seam the fabric worker endpoint streams
	// from.
	OnJobResult func(Result[json.RawMessage])
}

func (c Config) normalize(jobs int) Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > jobs {
		c.Workers = jobs
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Attempts <= 0 {
		c.Attempts = 1
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	return c
}

// Report aggregates a campaign run.
type Report struct {
	// Results holds every finished job by ID — executed this run or
	// loaded from the checkpoint.
	Results map[string]Result[json.RawMessage]
	// Completed and Failed count finished jobs by status (resumed ones
	// included); Resumed counts the subset loaded from the checkpoint.
	Completed, Failed, Resumed int
	// PendingIDs lists the jobs without a recorded result, in dispatch
	// order: the campaign was drained before they finished, or their
	// result could not be journaled. A resumed run retries them.
	PendingIDs []string
	// Audit summarizes the integrity audit pass of executors that
	// re-execute a fraction of finished jobs (the distributed fabric);
	// nil for plain local runs.
	Audit *AuditSummary
}

// AuditSummary reports an executor's audit re-execution pass: how many
// finished jobs were independently re-executed, how many matched, and
// every divergence — the SDC-shaped failure the audit exists to catch.
type AuditSummary struct {
	// Audited and Passed count audit re-executions and the subset whose
	// payload matched the original result byte for byte.
	Audited int `json:"audited"`
	Passed  int `json:"passed"`
	// Invalidated counts merged results revoked because their producer
	// was convicted (journaled as StatusInvalidated tombstones and
	// re-executed elsewhere).
	Invalidated int `json:"invalidated"`
	// SuspectWorkers lists convicted workers.
	SuspectWorkers []string `json:"suspect_workers,omitempty"`
	// Divergences itemizes every audit mismatch.
	Divergences []AuditDivergence `json:"divergences,omitempty"`
}

// AuditDivergence is one audit mismatch: a job whose re-execution
// produced a different payload than the merged result.
type AuditDivergence struct {
	// JobID names the diverging job; Worker the convicted producer.
	JobID  string `json:"job_id"`
	Worker string `json:"worker"`
	// GotSum is the attestation sum of the merged (revoked) result;
	// WantSum the sum of the trusted re-execution.
	GotSum  string `json:"got_sum"`
	WantSum string `json:"want_sum"`
}

// Incomplete reports whether the campaign was drained before every job
// finished.
func (r *Report) Incomplete() bool { return len(r.PendingIDs) > 0 }

// Errors returned by Run.
var (
	// ErrIncomplete wraps the error returned when the campaign is
	// cancelled before all jobs ran (the report still carries every
	// salvaged result).
	ErrIncomplete = errors.New("campaign incomplete")
	// ErrDuplicateJob rejects job sets with colliding IDs.
	ErrDuplicateJob = errors.New("campaign: duplicate job ID")
)

// panicError converts a recovered worker panic into a per-job error
// carrying the goroutine stack.
type panicError struct {
	value string
	stack string
}

func (e *panicError) Error() string { return "panic: " + e.value }

// Run executes the campaign: resumable, panic-isolated, deadline- and
// retry-bounded, gracefully drained on ctx cancellation. Finished jobs
// are recorded through a Ledger. Job failures are reported per-job in
// the Report, never as a Run error; Run's error reports setup problems
// (checkpoint, duplicate IDs), a failed checkpoint append, or —
// wrapping ErrIncomplete and the context error — an early drain. The
// Report is non-nil whenever jobs started, so callers can salvage
// partial results alongside a non-nil error.
func Run(ctx context.Context, cfg Config, jobs []Job) (*Report, error) {
	cfg = cfg.normalize(len(jobs))
	ids := make([]string, len(jobs))
	seen := make(map[string]bool, len(jobs))
	for i, j := range jobs {
		if seen[j.ID] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateJob, j.ID)
		}
		seen[j.ID] = true
		ids[i] = j.ID
	}
	led, err := OpenLedger(cfg.CheckpointPath, cfg.ConfigHash, cfg.Resume, ids)
	if err != nil {
		return nil, err
	}
	pending := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		if _, ok := led.Result(j.ID); !ok {
			pending = append(pending, j)
		}
	}

	// finished carries one entry per dispatched job: its result, or
	// abandoned=true when the drain interrupted it between retry
	// attempts (such jobs stay pending and are not journaled).
	type outcome struct {
		res       Result[json.RawMessage]
		abandoned bool
	}
	jobCh := make(chan Job)
	outCh := make(chan outcome)
	var wg sync.WaitGroup
	for n := 0; n < cfg.Workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				res, abandoned := runJob(ctx, cfg, j)
				outCh <- outcome{res: res, abandoned: abandoned}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(outCh)
	}()

	// The dispatcher stops at ctx cancellation; the ledger reports the
	// undispatched jobs as pending.
	go func() {
		defer close(jobCh)
		for _, j := range pending {
			if ctx.Err() != nil {
				return
			}
			select {
			case jobCh <- j:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Collector: a result the ledger could not make durable stays
	// pending, so callers (and resumed runs) re-run it instead of
	// trusting a result that would vanish with the process; Close
	// reports the failed append.
	for out := range outCh {
		if out.abandoned {
			continue
		}
		if ok, _ := led.Add(out.res); ok && cfg.OnJobResult != nil {
			cfg.OnJobResult(out.res)
		}
	}

	rep, err := led.Close()
	if err != nil {
		return rep, fmt.Errorf("campaign: %w", err)
	}
	if len(rep.PendingIDs) > 0 {
		return rep, fmt.Errorf("%w: %d of %d jobs not run: %w",
			ErrIncomplete, len(rep.PendingIDs), len(jobs), context.Cause(ctx))
	}
	return rep, nil
}

// runJob executes one job through its attempt budget. The returned
// abandoned flag is true when ctx was cancelled between attempts: the
// job is neither done nor failed-permanent and must stay pending.
func runJob(ctx context.Context, cfg Config, job Job) (Result[json.RawMessage], bool) {
	res := Result[json.RawMessage]{ID: job.ID}
	backoff := cfg.Backoff
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		v, err := runAttempt(cfg, job)
		if err == nil {
			res.Status = StatusDone
			res.Value = v
			return res, false
		}
		res.Err = err.Error()
		res.Cause = err
		res.Stack = ""
		var pe *panicError
		if errors.As(err, &pe) {
			res.Stack = pe.stack
		}
		if attempt >= cfg.Attempts {
			res.Status = StatusFailed
			return res, false
		}
		if !sleep(ctx, backoff) {
			return res, true
		}
		backoff *= 2
	}
}

// runAttempt runs a single attempt under the per-job deadline with
// panic isolation.
func runAttempt(cfg Config, job Job) (v json.RawMessage, err error) {
	// The job context is detached from the campaign context on
	// purpose: graceful drain means in-flight jobs run to completion.
	jctx := context.Background()
	if cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(jctx, cfg.JobTimeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{value: fmt.Sprint(p), stack: string(debug.Stack())}
		}
	}()
	return job.Run(jctx)
}

// sleep waits d or until ctx is cancelled; it reports whether the full
// duration elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
