package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"ftspm/internal/campaign"
)

// This file is the coordinator's audit arm: re-execute a deterministic
// fraction of remotely-completed jobs on a different executor and
// compare payloads. Attestation (sum + fingerprint checks at merge
// time) catches results corrupted in flight; the audit catches the
// strictly worse failure the attestation cannot — a worker that
// computes a wrong value and then honestly checksums it (bad RAM, a
// flaky core, a byzantine process). One divergence convicts the origin:
// nothing it produced that an audit has not confirmed stays in the
// report.
//
// Comparison is over the result *value* payload only
// (campaign.SumBytes of Result.Value), not the whole record: a job that
// needed a retry on one executor and not the other differs in Attempts
// without its answer differing, and convicting over retry metadata
// would turn flakiness into false SDC verdicts.

// auditPick deterministically selects jobs for audit re-execution: a
// seeded hash of the campaign and job identity against AuditFrac, so
// the same campaign audits the same jobs on every run (and a resume
// does not re-roll the dice).
func (f *fabricRun) auditPick(id string) bool {
	if f.cfg.AuditFrac <= 0 {
		return false
	}
	if f.cfg.AuditFrac >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "audit|%s|%s|%d", f.src.Hash, id, f.cfg.AuditSeed)
	return float64(h.Sum64()>>11)/float64(uint64(1)<<53) < f.cfg.AuditFrac
}

// audit re-executes one job and compares value payloads. origSum is the
// value sum of the merged result; origin the worker that produced it.
// The re-execution prefers a different worker; divergence against a
// remote auditor is tie-broken by a local re-execution (the trust
// anchor), which decides whether the origin, the auditor, or both lied.
// An audit that cannot complete (no executor, drain) is inconclusive
// and convicts nobody.
func (f *fabricRun) audit(ctx context.Context, id, origSum string, origin *workerRef) {
	if ctx.Err() != nil {
		return
	}
	trusted := ""
	var auditor *workerRef
	if w := f.auditorFor(origin); w != nil {
		if sum, ok := f.reexecRemote(ctx, w, id); ok {
			auditor, trusted = w, sum
		}
	}
	if auditor == nil {
		sum, err := f.reexecLocal(ctx, id)
		if err != nil {
			f.cfg.Logf("fabric: audit of %s inconclusive: %v", id, err)
			return
		}
		trusted = sum
	}

	f.auditMu.Lock()
	f.auditSum.Audited++
	f.auditMu.Unlock()

	// A concurrent conviction may already have revoked the result this
	// audit re-executed; its verdict applies to a record that no longer
	// exists, so it is discarded either way.
	stale := func() bool { return f.m.currentSum(id) != origSum }

	if trusted == origSum {
		if !stale() {
			f.auditConfirm(id)
		}
		return
	}

	// Divergence. If the auditor was remote, it is as suspect as the
	// origin until a local re-execution arbitrates.
	local := trusted
	if auditor != nil {
		sum, err := f.reexecLocal(ctx, id)
		if err != nil {
			f.cfg.Logf("fabric: audit of %s diverged (%s vs %s) but local tiebreak failed: %v; convicting nobody",
				id, origSum, trusted, err)
			return
		}
		local = sum
		if trusted != local {
			// The auditor itself diverges from the trust anchor.
			f.convict(auditor, id, trusted, local)
		}
	}
	if origSum == local {
		// The origin agreed with the trusted value all along — the
		// remote auditor was the liar (convicted above).
		if !stale() {
			f.auditConfirm(id)
		}
		return
	}
	if stale() {
		return
	}
	f.convict(origin, id, origSum, local)
}

// auditConfirm records a passed audit and shields the result from later
// convictions of its origin.
func (f *fabricRun) auditConfirm(id string) {
	f.m.auditPass(id)
	f.auditMu.Lock()
	f.auditSum.Passed++
	f.auditMu.Unlock()
}

// auditorFor picks a worker other than the origin to re-execute on:
// healthy, not convicted, breaker closed. nil falls the audit back to
// local re-execution.
func (f *fabricRun) auditorFor(origin *workerRef) *workerRef {
	for _, w := range f.workers {
		if w == origin || w.isSuspect() || w.isDown() || !w.brk.Ready() {
			continue
		}
		return w
	}
	return nil
}

// convict marks one worker SUSPECT after a confirmed divergence: its
// breaker latches open (no cooldown recovery), its loop exits, every
// unconfirmed result it produced is revoked — tombstoned in the journal
// and dropped from the report — and the revoked jobs re-queue onto
// trustworthy executors. The divergence is itemized in the audit
// summary.
func (f *fabricRun) convict(w *workerRef, id, gotSum, wantSum string) {
	w.setSuspect()
	w.brk.ForceOpen()
	ids, err := f.m.invalidateFrom(w.url)

	f.auditMu.Lock()
	f.auditSum.Divergences = append(f.auditSum.Divergences, campaign.AuditDivergence{
		JobID: id, Worker: w.url, GotSum: gotSum, WantSum: wantSum,
	})
	f.auditSum.Invalidated += len(ids)
	if !f.suspects[w.url] {
		f.suspects[w.url] = true
		f.auditSum.SuspectWorkers = append(f.auditSum.SuspectWorkers, w.url)
	}
	f.auditMu.Unlock()

	f.cfg.Logf("fabric: worker %s CONVICTED: job %s re-executed to %s, worker returned %s; %d unaudited results invalidated and re-queued",
		w.url, id, wantSum, gotSum, len(ids))
	if err != nil {
		// The tombstone journaling failed mid-conviction: the journal is
		// gone, and with it the crash-safety of the revocation.
		f.q.fail(fmt.Errorf("checkpoint: invalidate convicted results: %w", err))
		return
	}
	f.q.reopen(ids)
}

// reexecRemote re-executes one job on worker w and returns its value
// attestation sum. ok=false means the audit attempt is inconclusive
// (placement failed, stream died, attestation mismatch, or the job
// failed remotely); the caller falls back to local re-execution.
func (f *fabricRun) reexecRemote(ctx context.Context, w *workerRef, id string) (sum string, ok bool) {
	req := f.tmpl
	req.JobIDs = []string{id}

	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	lease := time.AfterFunc(f.cfg.Lease, func() { cancel(errLeaseExpired) })
	defer lease.Stop()
	st, err := w.cl.Fabric(sctx, req)
	if err != nil {
		w.brk.RecordOutcome(true)
		return "", false
	}
	defer st.Close()
	for {
		line, err := st.Next()
		if err != nil {
			return "", false
		}
		lease.Reset(f.cfg.Lease)
		if line.Result != nil && line.Result.ID == id {
			res := *line.Result
			rsum, _, serr := campaign.SumResult(res)
			if serr != nil || line.Sum != rsum || line.Fp != f.fp {
				w.brk.RecordOutcome(true)
				w.setDown(true)
				return "", false
			}
			if res.Status != campaign.StatusDone {
				return "", false
			}
			return campaign.SumBytes(res.Value), true
		}
		if line.Done != nil {
			return "", false
		}
	}
}

// reexecLocal re-executes one job in-process — the audit's trust anchor
// — and returns its value attestation sum. The job is handed out
// without the cache on purpose: an audit must recompute, never read
// back a memo, or the verification would be circular.
func (f *fabricRun) reexecLocal(ctx context.Context, id string) (string, error) {
	jobs, err := f.src.Jobs([]string{id}, nil)
	if err != nil {
		return "", err
	}
	var sum string
	cfg := campaign.Config{
		Workers:    1,
		JobTimeout: f.cfg.JobTimeout,
		Attempts:   f.cfg.Retries + 1,
		OnJobResult: func(res campaign.Result[json.RawMessage]) {
			if res.ID == id && res.Status == campaign.StatusDone {
				sum = campaign.SumBytes(res.Value)
			}
		},
	}
	if _, err := campaign.Run(ctx, cfg, jobs); err != nil {
		return "", err
	}
	if sum == "" {
		return "", fmt.Errorf("local re-execution of %s did not complete", id)
	}
	return sum, nil
}
