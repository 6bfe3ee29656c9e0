package experiments

import (
	"context"
	"encoding/json"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/resultcache"
)

// This file holds the shared configuration and status types of the
// crash-safe campaign layer (internal/campaign) that both the sweep and
// the soak engines run on. The division of labour: internal/campaign
// owns job scheduling, panic isolation, retries, deadlines, the
// checkpoint journal, and graceful drain; this package owns job
// identity (deterministic IDs + a config hash over the normalized
// experiment options) and the domain-specific aggregation of job
// results into Sweep / SoakReport values.

// CampaignConfig parameterizes the in-process crash-safe runner
// (RunLocal). The zero value runs in-memory: no checkpoint, no retries,
// no deadline.
type CampaignConfig struct {
	// Checkpoint, when non-empty, journals each finished (workload,
	// structure[, trial]) job to this append-only JSONL file.
	Checkpoint string
	// Resume skips jobs already journaled in Checkpoint. The journal's
	// config hash must match the current options — a mismatch is a
	// hard error, never silent reuse.
	Resume bool
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// JobTimeout is the per-job context deadline (0 = none).
	JobTimeout time.Duration
	// Retries is the per-job retry budget after the first attempt;
	// once exhausted the job is recorded failed-permanent.
	Retries int
	// Backoff is the first retry's backoff, doubling per retry
	// (default 100ms).
	Backoff time.Duration
	// Cache, when non-nil, is the content-addressed result cache
	// consulted before each job runs (and filled by each miss). Cached
	// bytes are the exact bytes the job would have produced, so
	// reports and checkpoints stay byte-identical; see
	// internal/resultcache.
	Cache *resultcache.Cache

	// onJobDone is a test seam observing each finished job (used to
	// cancel mid-campaign in the crash-resume tests).
	onJobDone func(id string, status campaign.Status)
}

// Validate rejects inconsistent configurations.
func (c CampaignConfig) Validate() error {
	if c.Resume && c.Checkpoint == "" {
		return campaign.Usagef("resume requires a checkpoint path")
	}
	if c.Retries < 0 {
		return campaign.Usagef("retries must be >= 0 (got %d)", c.Retries)
	}
	if c.JobTimeout < 0 {
		return campaign.Usagef("job timeout must be >= 0 (got %v)", c.JobTimeout)
	}
	return nil
}

// Executor runs every job of a campaign source and returns the raw
// report: CampaignConfig.RunLocal in process, or fabric.Config.Run
// across ftspmd workers. Both are method values of their config.
type Executor func(ctx context.Context, src *JobSource) (*campaign.Report[json.RawMessage], error)

// RunLocal is the in-process Executor: src's jobs run on the crash-safe
// campaign runner configured by c, consulting c.Cache first.
func (c CampaignConfig) RunLocal(ctx context.Context, src *JobSource) (*campaign.Report[json.RawMessage], error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := src.UseCache(c.Cache); err != nil {
		return nil, err
	}
	jobs, err := src.Jobs(src.IDs)
	if err != nil {
		return nil, err
	}
	return campaign.Run(ctx, c.runnerConfig(src.Hash), jobs)
}

func (c CampaignConfig) runnerConfig(hash string) campaign.Config {
	return campaign.Config{
		Workers:        c.Workers,
		JobTimeout:     c.JobTimeout,
		Attempts:       c.Retries + 1,
		Backoff:        c.Backoff,
		CheckpointPath: c.Checkpoint,
		Resume:         c.Resume,
		ConfigHash:     hash,
		OnJobDone:      c.onJobDone,
	}
}

// JobFailure is one failed-permanent job, salvaged into reports.
type JobFailure struct {
	ID       string `json:"id"`
	Error    string `json:"error"`
	Stack    string `json:"stack,omitempty"`
	Attempts int    `json:"attempts"`

	// cause is the live error value (nil for checkpoint-resumed
	// failures, which only retain the text).
	cause error
}

// CampaignStatus summarizes a campaign run for salvage reporting.
type CampaignStatus struct {
	// Completed, Failed, and Resumed count finished jobs (Resumed is
	// the subset loaded from the checkpoint); Pending counts jobs the
	// drain left unrun.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Resumed   int `json:"resumed"`
	Pending   int `json:"pending"`
	// Incomplete marks a campaign drained before every job ran; the
	// pending jobs are retried on resume.
	Incomplete bool `json:"incomplete"`
	// Failures lists failed-permanent jobs in campaign order.
	Failures []JobFailure `json:"failures,omitempty"`
	// PendingIDs lists the unrun jobs.
	PendingIDs []string `json:"pending_ids,omitempty"`
	// Audit carries the integrity-audit summary of executors that
	// re-execute a fraction of finished jobs (the distributed fabric
	// with -audit-frac); nil otherwise.
	Audit *campaign.AuditSummary `json:"audit,omitempty"`
}

// FirstFailure returns the first failure's error value (its journaled
// text when the error value itself did not survive a resume).
func (s *CampaignStatus) FirstFailure() error {
	if len(s.Failures) == 0 {
		return nil
	}
	f := s.Failures[0]
	if f.cause != nil {
		return f.cause
	}
	return &resumedFailure{msg: f.Error}
}

type resumedFailure struct{ msg string }

func (e *resumedFailure) Error() string { return e.msg }

// statusOf flattens a campaign report, ordering failures by the
// campaign's job order so salvage output is deterministic.
func statusOf[R any](rep *campaign.Report[R], jobOrder []string) *CampaignStatus {
	st := &CampaignStatus{
		Completed:  rep.Completed,
		Failed:     rep.Failed,
		Resumed:    rep.Resumed,
		Pending:    len(rep.PendingIDs),
		Incomplete: rep.Incomplete(),
		PendingIDs: rep.PendingIDs,
		Audit:      rep.Audit,
	}
	for _, id := range jobOrder {
		r, ok := rep.Results[id]
		if !ok || r.Status != campaign.StatusFailed {
			continue
		}
		st.Failures = append(st.Failures, JobFailure{
			ID:       r.ID,
			Error:    r.Err,
			Stack:    r.Stack,
			Attempts: r.Attempts,
			cause:    r.Cause,
		})
	}
	return st
}
