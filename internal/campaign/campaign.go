// Package campaign is a crash-safe runner for long experiment
// campaigns: a bounded worker pool that executes independent jobs with
// panic isolation, per-job deadlines, a bounded retry-with-backoff
// budget, an append-only JSONL checkpoint for resumable runs, and
// graceful drain on cancellation.
//
// The sweep (experiments.RunSweepOn) and soak (experiments.RunSoakOn)
// engines are both built on it. The contract that makes interrupted
// campaigns cheap instead of fatal:
//
//   - Every job has a deterministic ID. A finished job — completed or
//     failed-permanent — is journaled to the checkpoint with its
//     JSON-encoded result, and a resumed run skips it, so the final
//     report of an interrupted-then-resumed campaign is byte-identical
//     to an uninterrupted one (results round-trip exactly through
//     encoding/json).
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
// lets in-flight jobs finish), and should return a JSON-serializable
// result when the campaign is checkpointed.
type Job[R any] struct {
	// ID is the job's deterministic identity; it keys the checkpoint,
	// so it must be stable across runs and unique within the campaign.
	ID string
	// Run executes the job.
	Run func(ctx context.Context) (R, error)
}

// Result is one finished job: the journal record and the report entry.
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
	// hard error, never silent reuse.
	Resume bool
	// ConfigHash fingerprints the campaign configuration (see
	// HashJSON); required when CheckpointPath is set.
	ConfigHash string
	// OnJobDone, when non-nil, observes every finished job after it is
	// journaled (called from the collector, never concurrently).
	OnJobDone func(id string, status Status)
	// OnJobResult, when non-nil, observes every finished job's full
	// result in journal form (value encoded as JSON) after it is
	// journaled — live results only; resumed ones are already in the
	// caller's hands. Called from the collector, never concurrently.
	// This is the seam the fabric worker endpoint streams from.
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
type Report[R any] struct {
	// Results holds every finished job by ID — executed this run or
	// loaded from the checkpoint.
	Results map[string]Result[R]
	// Completed and Failed count finished jobs by status (resumed ones
	// included); Resumed counts the subset loaded from the checkpoint.
	Completed, Failed, Resumed int
	// PendingIDs lists jobs never finished because the campaign was
	// cancelled mid-flight, in dispatch order. Pending jobs are not
	// journaled, so a resumed run retries them.
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
func (r *Report[R]) Incomplete() bool { return len(r.PendingIDs) > 0 }

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
// retry-bounded, gracefully drained on ctx cancellation. Job failures
// are reported per-job in the Report, never as a Run error; Run's error
// reports setup problems (checkpoint, duplicate IDs) or — wrapping
// ErrIncomplete and the context error — an early drain. The Report is
// non-nil whenever jobs started, so callers can salvage partial
// results alongside a non-nil error.
func Run[R any](ctx context.Context, cfg Config, jobs []Job[R]) (*Report[R], error) {
	cfg = cfg.normalize(len(jobs))
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if seen[j.ID] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateJob, j.ID)
		}
		seen[j.ID] = true
	}

	rep := &Report[R]{Results: make(map[string]Result[R], len(jobs))}
	var jl *journal
	if cfg.CheckpointPath != "" {
		var err error
		var done map[string]Result[R]
		jl, done, err = openCheckpoint[R](cfg.CheckpointPath, cfg.ConfigHash, cfg.Resume)
		if err != nil {
			return nil, err
		}
		defer jl.Close()
		for id, r := range done {
			if !seen[id] {
				continue // journal entries for jobs not in this campaign
			}
			r.Resumed = true
			rep.Results[id] = r
			rep.Resumed++
			switch r.Status {
			case StatusFailed:
				rep.Failed++
			default:
				rep.Completed++
			}
		}
	}

	pending := make([]Job[R], 0, len(jobs))
	for _, j := range jobs {
		if _, ok := rep.Results[j.ID]; !ok {
			pending = append(pending, j)
		}
	}

	// finished carries one entry per dispatched job: its result, or
	// abandoned=true when the drain interrupted it between retry
	// attempts (such jobs stay pending and are not journaled).
	type outcome struct {
		res       Result[R]
		abandoned bool
	}
	jobCh := make(chan Job[R])
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

	// The dispatcher stops at ctx cancellation; undispatched job IDs
	// are reported as pending.
	undispatched := make(chan []string, 1)
	go func() {
		defer close(jobCh)
		abort := func(i int) {
			ids := make([]string, 0, len(pending)-i)
			for _, p := range pending[i:] {
				ids = append(ids, p.ID)
			}
			undispatched <- ids
		}
		for i, j := range pending {
			if ctx.Err() != nil {
				abort(i)
				return
			}
			select {
			case jobCh <- j:
			case <-ctx.Done():
				abort(i)
				return
			}
		}
		undispatched <- nil
	}()

	// Collector: journal each finished job (write-fsync before it
	// counts), then account for it. A journal append failure means the
	// result was never durably recorded: the job is reported pending —
	// not completed — so callers (and resumed runs) re-run it instead of
	// silently trusting a result that would vanish with the process.
	var journalErr error
	for out := range outCh {
		if out.abandoned {
			rep.PendingIDs = append(rep.PendingIDs, out.res.ID)
			continue
		}
		// Encode for the observer before accounting: a result that
		// cannot round-trip through JSON is as unusable to the caller as
		// one that failed to journal, so it is reported pending too.
		var raw Result[json.RawMessage]
		var rawErr error
		if cfg.OnJobResult != nil {
			raw, rawErr = rawResult(out.res)
		}
		if jl != nil {
			if journalErr == nil {
				journalErr = jl.Append(out.res)
			}
			if journalErr != nil {
				rep.PendingIDs = append(rep.PendingIDs, out.res.ID)
				continue
			}
		}
		if rawErr != nil {
			rep.PendingIDs = append(rep.PendingIDs, out.res.ID)
			continue
		}
		rep.Results[out.res.ID] = out.res
		if out.res.Status == StatusFailed {
			rep.Failed++
		} else {
			rep.Completed++
		}
		if cfg.OnJobDone != nil {
			cfg.OnJobDone(out.res.ID, out.res.Status)
		}
		if cfg.OnJobResult != nil {
			cfg.OnJobResult(raw)
		}
	}
	rep.PendingIDs = append(rep.PendingIDs, <-undispatched...)

	if journalErr != nil {
		return rep, fmt.Errorf("campaign: checkpoint: %w", journalErr)
	}
	if jl != nil {
		if err := jl.Close(); err != nil {
			return rep, fmt.Errorf("campaign: checkpoint: %w", err)
		}
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
func runJob[R any](ctx context.Context, cfg Config, job Job[R]) (Result[R], bool) {
	res := Result[R]{ID: job.ID}
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
func runAttempt[R any](cfg Config, job Job[R]) (v R, err error) {
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

// rawResult re-encodes a typed result into journal form: the value as
// its JSON encoding, every other field unchanged.
func rawResult[R any](r Result[R]) (Result[json.RawMessage], error) {
	var raw json.RawMessage
	if r.Status == StatusDone {
		b, err := json.Marshal(r.Value)
		if err != nil {
			return Result[json.RawMessage]{}, fmt.Errorf("campaign: encode result %s: %w", r.ID, err)
		}
		raw = b
	}
	return Result[json.RawMessage]{
		ID: r.ID, Status: r.Status, Attempts: r.Attempts,
		Value: raw, Err: r.Err, Stack: r.Stack,
		Resumed: r.Resumed, Cause: r.Cause,
	}, nil
}

// DecodeReport converts a raw-JSON-typed report (the form external
// executors produce over OpenJournal's record format) into a typed one:
// done values are decoded, failed and pending entries carry their
// metadata unchanged. This is the same JSON round-trip a checkpoint
// resume performs, so a decoded report aggregates byte-identically to
// a natively-typed one.
func DecodeReport[R any](raw *Report[json.RawMessage]) (*Report[R], error) {
	rep := &Report[R]{
		Results:    make(map[string]Result[R], len(raw.Results)),
		Completed:  raw.Completed,
		Failed:     raw.Failed,
		Resumed:    raw.Resumed,
		PendingIDs: raw.PendingIDs,
		Audit:      raw.Audit,
	}
	for id, r := range raw.Results {
		var v R
		if r.Status == StatusDone && len(r.Value) > 0 {
			if err := json.Unmarshal(r.Value, &v); err != nil {
				return nil, fmt.Errorf("campaign: decode result %s: %w", id, err)
			}
		}
		rep.Results[id] = Result[R]{
			ID: r.ID, Status: r.Status, Attempts: r.Attempts,
			Value: v, Err: r.Err, Stack: r.Stack,
			Resumed: r.Resumed, Cause: r.Cause,
		}
	}
	return rep, nil
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
