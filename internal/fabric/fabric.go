// Package fabric is the distributed campaign coordinator: it shards a
// campaign's job list across a cluster of ftspmd workers, streams
// per-job results back over /v1/fabric, and merges them into a report
// byte-identical to a local run of the same campaign.
//
// The design is pull-based and journal-anchored. Worker loops pull
// chunks from a shared queue only while their daemon probes healthy, so
// placement follows capacity; every merged result is fsynced to the
// campaign checkpoint journal before the job is acked, so the only
// coordinator state worth preserving IS the journal — a SIGTERM drain
// or crash loses nothing but in-flight compute, and a restarted
// coordinator (or a plain single-node run) resumes from the same file.
//
// Failure handling, layer by layer: a lease watchdog cancels streams
// that stop heartbeating; un-acked jobs of a dead placement are
// re-queued (exactly-once is restored by job-ID dedup at the merger); a
// placement that started and then died marks its jobs as suspects,
// which are re-placed alone so a poison job can only take itself down,
// and quarantined after MaxPlacements burned placements; a per-worker
// circuit breaker stops hammering a flapping daemon; and when every
// worker is down at once the coordinator degrades to executing chunks
// locally rather than stalling the campaign.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/experiments"
	"ftspm/internal/fabric/wire"
	"ftspm/internal/resultcache"
	"ftspm/internal/server"
	"ftspm/internal/server/client"
)

// ErrNoWorkers rejects a fabric run configured with no worker URLs.
var ErrNoWorkers = errors.New("fabric: no workers configured")

// errLeaseExpired cancels a chunk stream whose worker stopped
// heartbeating (no line received within the lease).
var errLeaseExpired = errors.New("fabric: lease expired: no heartbeat from worker")

// Config parameterizes a coordinator run. Zero values select the
// defaults in parentheses.
type Config struct {
	// Workers lists the ftspmd base URLs the campaign is sharded over.
	Workers []string
	// Parallel bounds each worker's sim pool per chunk, and the local
	// fallback pool (0 = worker/local GOMAXPROCS).
	Parallel int
	// ChunkSize caps jobs per placement (computed: enough chunks for
	// ~4 rounds per worker, clamped to [1, 64]).
	ChunkSize int
	// Lease is the per-stream heartbeat timeout: a placement that
	// streams nothing for this long is declared dead and its un-acked
	// jobs re-queued (60s).
	Lease time.Duration
	// ProbeInterval spaces re-probes of /healthz on down or busy
	// workers (2s): it is how long a recovered worker may wait to be
	// noticed. It never delays campaign completion or the switch to
	// local fallback; both follow events (the queue closing, a worker
	// turning down). ProbeTimeout bounds each probe (= ProbeInterval).
	ProbeInterval, ProbeTimeout time.Duration
	// MaxPlacements quarantines a job after this many placements that
	// started and then died with it outstanding (3).
	MaxPlacements int
	// Retries and JobTimeout bound each sim job, as in the local
	// campaign runner.
	Retries    int
	JobTimeout time.Duration
	// Checkpoint names the campaign journal; Resume loads it and skips
	// finished jobs. The file is interchangeable with a single-node
	// run's checkpoint of the same campaign.
	Checkpoint string
	Resume     bool
	// AuditFrac makes the coordinator deterministically re-execute that
	// fraction of remotely-completed jobs on a different worker (or
	// locally) and compare payloads. A divergence convicts the origin
	// worker: its breaker latches open, its unaudited results are
	// invalidated and re-queued elsewhere, and the divergence is
	// itemized in the report's audit summary. 0 disables auditing.
	AuditFrac float64
	// AuditSeed varies which jobs the deterministic audit selection
	// picks (same seed + same campaign = same picks).
	AuditSeed int64
	// Fingerprint overrides the coordinator's build fingerprint
	// (default wire.Fingerprint()). Workers whose /healthz fingerprint
	// differs are refused at placement time, and every streamed result
	// line must carry it.
	Fingerprint string
	// Breaker tunes the per-worker circuit breaker.
	Breaker server.BreakerConfig
	// NoLocalFallback disables degrading to local execution when every
	// worker is down.
	NoLocalFallback bool
	// Cache, when non-nil, is the coordinator's content-addressed
	// result cache. Jobs whose results it holds merge instantly —
	// journaled exactly as local first-attempt runs, never placed on a
	// worker — and locally-executed fallback chunks read and fill it.
	// The cache is a trust anchor: only locally-computed results enter
	// it. Results streamed back by remote workers are deliberately NOT
	// cached, because the audit path re-executes suspect jobs locally —
	// a cache poisoned by a byzantine worker's bytes would let the
	// worker confirm its own lies.
	Cache *resultcache.Cache
	// HTTPClient overrides the transport (http.DefaultClient).
	HTTPClient *http.Client
	// Logf, when set, receives coordinator progress and fault events.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 60 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.MaxPlacements <= 0 {
		c.MaxPlacements = 3
	}
	if c.Fingerprint == "" {
		c.Fingerprint = wire.Fingerprint()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// workerRef is one daemon's coordinator-side state.
type workerRef struct {
	url string
	cl  *client.Client
	brk *server.Breaker
	// downs is kicked each time the worker turns down, so the local
	// fallback loop sees the all-down transition as it happens.
	downs chan struct{}
	down  sync.Mutex // guards the flags below
	isDn  bool
	// sus marks a worker convicted by the audit: its loop exits, its
	// breaker is force-opened, and nothing it streams merges again.
	sus bool
}

func (w *workerRef) setDown(v bool) {
	w.down.Lock()
	turned := v && !w.isDn
	w.isDn = v
	w.down.Unlock()
	if turned {
		kick(w.downs)
	}
}

func (w *workerRef) isDown() bool {
	w.down.Lock()
	defer w.down.Unlock()
	return w.isDn
}

// setSuspect marks the worker convicted; a suspect is also permanently
// down, so the local fallback's all-down check counts it out.
func (w *workerRef) setSuspect() {
	w.down.Lock()
	w.sus = true
	w.down.Unlock()
	w.setDown(true)
}

func (w *workerRef) isSuspect() bool {
	w.down.Lock()
	defer w.down.Unlock()
	return w.sus
}

// fabricRun is one coordinator run's shared state.
type fabricRun struct {
	cfg     Config
	src     *experiments.JobSource
	tmpl    wire.Request
	q       *queue
	m       *merger
	workers []*workerRef
	chunk   int
	fp      string
	// downs carries worker-down transitions to the local fallback loop.
	downs chan struct{}

	// auditWG tracks in-flight audit goroutines; auditMu guards the
	// accumulating summary and the suspect set.
	auditWG  sync.WaitGroup
	auditMu  sync.Mutex
	auditSum campaign.AuditSummary
	suspects map[string]bool
}

// Run executes the campaign described by src across c.Workers and
// returns the merged raw report. On cancellation or quarantine the
// report carries every durable result and the error wraps
// campaign.ErrIncomplete, exactly like the local campaign runner. The
// method value cfg.Run is an experiments.Executor, as
// CampaignConfig.RunLocal is.
func (c Config) Run(ctx context.Context, src *experiments.JobSource) (*campaign.Report, error) {
	cfg := c.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, ErrNoWorkers
	}
	downs := make(chan struct{}, 1)
	workers := make([]*workerRef, len(cfg.Workers))
	for i, u := range cfg.Workers {
		cl, err := client.New(client.Config{BaseURL: u, HTTPClient: cfg.HTTPClient})
		if err != nil {
			return nil, fmt.Errorf("fabric: worker %s: %w", u, err)
		}
		workers[i] = &workerRef{url: u, cl: cl, brk: server.NewBreaker(cfg.Breaker, nil), downs: downs}
	}
	led, err := campaign.OpenLedger(cfg.Checkpoint, src.Hash, cfg.Resume, src.IDs)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	var todo []string
	for _, id := range src.IDs {
		if _, ok := led.Result(id); !ok {
			todo = append(todo, id)
		}
	}
	if n := len(src.IDs) - len(todo); n > 0 {
		cfg.Logf("fabric: resumed %d finished jobs from %s", n, cfg.Checkpoint)
	}

	m := newMerger(led)
	if cfg.Cache != nil {
		// Cache pre-merge: jobs whose results the coordinator's cache
		// already holds never reach the queue. Each hit merges through
		// the normal path — journal-fsync first, exactly-once dedup,
		// trusted "" origin — so the checkpoint stays byte-identical to
		// a run that computed them, and a resume sees no difference.
		remaining := todo[:0]
		for _, id := range todo {
			res, ok, err := src.CachedResult(cfg.Cache, id)
			if err != nil {
				led.Close()
				return nil, fmt.Errorf("fabric: %w", err)
			}
			if !ok {
				remaining = append(remaining, id)
				continue
			}
			if _, err := m.add(res, ""); err != nil {
				rep, _ := led.Close()
				return rep, fmt.Errorf("fabric: checkpoint: %w", err)
			}
		}
		if hits := len(todo) - len(remaining); hits > 0 {
			cfg.Logf("fabric: %d jobs served from the result cache; %d to place", hits, len(remaining))
		}
		todo = remaining
	}

	f := &fabricRun{
		cfg:      cfg,
		src:      src,
		tmpl:     requestFor(src, cfg),
		q:        newQueue(todo, src.SetupKey, cfg.MaxPlacements),
		m:        m,
		workers:  workers,
		chunk:    chunkSize(cfg, len(todo)),
		fp:       cfg.Fingerprint,
		downs:    downs,
		suspects: make(map[string]bool),
	}

	// Cancellation path: closing the queue wakes blocked poppers and
	// every loop waiting on q.done; each chunk stream is additionally
	// canceled through its own context, which derives from ctx.
	stop := context.AfterFunc(ctx, f.q.close)
	defer stop()

	var wg sync.WaitGroup
	for _, w := range f.workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.workerLoop(ctx, w)
		}()
	}
	if !cfg.NoLocalFallback {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.localLoop(ctx)
		}()
	}
	wg.Wait()
	f.auditWG.Wait()

	rep, err := led.Close()
	if cfg.AuditFrac > 0 {
		f.auditMu.Lock()
		s := f.auditSum
		f.auditMu.Unlock()
		rep.Audit = &s
	}
	if qerr := f.q.failure(); qerr != nil {
		return rep, fmt.Errorf("fabric: %w", qerr)
	}
	if err != nil {
		return rep, fmt.Errorf("fabric: %w", err)
	}
	if qids := f.q.quarantinedIDs(); len(qids) > 0 {
		return rep, fmt.Errorf("%w: %d of %d jobs not run (%d quarantined after %d lost placements each: %s)",
			campaign.ErrIncomplete, len(rep.PendingIDs), len(src.IDs),
			len(qids), cfg.MaxPlacements, strings.Join(qids, ", "))
	}
	if len(rep.PendingIDs) > 0 {
		return rep, fmt.Errorf("%w: %d of %d jobs not run: %w",
			campaign.ErrIncomplete, len(rep.PendingIDs), len(src.IDs), context.Cause(ctx))
	}
	return rep, nil
}

// requestFor builds the wire request template for one source; the
// worker loops fill in JobIDs per chunk.
func requestFor(src *experiments.JobSource, cfg Config) wire.Request {
	return wire.Request{
		CampaignSpec: src.Spec,
		ConfigHash:   src.Hash,
		Parallel:     cfg.Parallel,
		Retries:      cfg.Retries,
		JobTimeoutMS: cfg.JobTimeout.Milliseconds(),
	}
}

// chunkSize picks the placement granularity: explicit, or enough chunks
// for about four placement rounds per worker, so a lost placement costs
// a fraction of the campaign, clamped to [1, 64].
func chunkSize(cfg Config, jobs int) int {
	if cfg.ChunkSize > 0 {
		return cfg.ChunkSize
	}
	n := jobs / (4 * len(cfg.Workers))
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	return n
}

// workerLoop drives one worker: probe until healthy, pull a chunk,
// stream it, repeat. The circuit breaker gates placements after
// repeated failures; a down or busy worker sleeps a probe interval
// without holding any jobs, and wakes early only to exit when the
// queue closes.
func (f *fabricRun) workerLoop(ctx context.Context, w *workerRef) {
	for {
		if ctx.Err() != nil || f.q.isClosed() || w.isSuspect() {
			return
		}
		if !w.brk.Ready() {
			if !f.sleep(ctx, f.cfg.ProbeInterval) {
				return
			}
			continue
		}
		up, busy := f.probe(ctx, w)
		w.setDown(!up)
		if !up || busy {
			if !f.sleep(ctx, f.cfg.ProbeInterval) {
				return
			}
			continue
		}
		chunk, ok := f.q.pop(f.chunk)
		if !ok {
			return
		}
		f.place(ctx, w, chunk)
	}
}

// probe checks one worker's /healthz in a single attempt: up means
// reachable and not draining; busy means its fabric admission queue is
// full, so placing now would only be shed. A failed probe is final;
// the worker loop re-probes after ProbeInterval, so the all-down
// transition, and with it local fallback, follows the first failure.
func (f *fabricRun) probe(ctx context.Context, w *workerRef) (up, busy bool) {
	pctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeTimeout)
	defer cancel()
	h, err := w.cl.Healthz(pctx)
	if err != nil {
		f.cfg.Logf("fabric: worker %s down: %v", w.url, err)
		return false, false
	}
	if h.Draining {
		return false, false
	}
	if h.Fingerprint != f.fp {
		// Version skew: a worker built differently may compute "the same
		// job" differently. Refusing it at probe time keeps every result
		// in the report attributable to one build.
		f.cfg.Logf("fabric: worker %s refused: fingerprint %s, coordinator wants %s (version skew)",
			w.url, h.Fingerprint, f.fp)
		return false, false
	}
	busy = h.Fabric.QueueCap > 0 && h.Fabric.Queued >= h.Fabric.QueueCap
	return true, busy
}

// place streams one chunk on one worker. Jobs are acked as their
// results become durable; whatever the stream did not deliver is
// re-queued — with a placement penalty only if the stream had actually
// started (the worker accepted and then died mid-chunk), since a
// connection-refused or shed placement says nothing about the jobs.
func (f *fabricRun) place(ctx context.Context, w *workerRef, chunk []string) {
	req := f.tmpl
	req.JobIDs = chunk

	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	// Lease watchdog, armed before the request is even sent: every
	// streamed line is a heartbeat, and silence for a full lease kills
	// the stream — including a worker that accepts the connection but
	// never answers, which would otherwise hang the placement forever.
	lease := time.AfterFunc(f.cfg.Lease, func() { cancel(errLeaseExpired) })
	defer lease.Stop()
	st, err := w.cl.Fabric(sctx, req)
	if err != nil {
		w.brk.RecordOutcome(true)
		w.setDown(true)
		f.cfg.Logf("fabric: worker %s rejected chunk (%d jobs): %v", w.url, len(chunk), err)
		f.q.requeue(chunk, false)
		return
	}
	defer st.Close()

	placed := make(map[string]bool, len(chunk))
	outstanding := make(map[string]bool, len(chunk))
	for _, id := range chunk {
		placed[id] = true
		outstanding[id] = true
	}
	// abort kills the placement on a protocol- or transport-grade
	// violation: the un-acked jobs re-queue without a placement penalty
	// (the fault is the worker's, not possibly the jobs'), the breaker
	// takes a strike, and the worker is re-probed before it gets more
	// work.
	abort := func(format string, args ...any) {
		w.brk.RecordOutcome(true)
		w.setDown(true)
		f.cfg.Logf("fabric: worker %s: %s; aborting placement", w.url, fmt.Sprintf(format, args...))
		missing := make([]string, 0, len(outstanding))
		for _, id := range chunk {
			if outstanding[id] {
				missing = append(missing, id)
			}
		}
		f.q.requeue(missing, false)
	}
	sawTrailer := false
	var trailerErr string
	for {
		line, err := st.Next()
		if err != nil {
			break
		}
		lease.Reset(f.cfg.Lease)
		if line.Result != nil {
			res := *line.Result
			// Placement validation: a result for a job this chunk never
			// placed is a protocol violation — merging it would let any
			// worker overwrite any job in the campaign.
			if !placed[res.ID] {
				abort("streamed result for job %q, which was never placed here", res.ID)
				return
			}
			// Attestation: the sum must match the bytes as merged and
			// the fingerprint must be this coordinator's build. Either
			// mismatch is transport-grade — re-queue, never merge.
			sum, _, serr := campaign.SumResult(res)
			if serr != nil || line.Sum != sum {
				abort("result %s failed attestation (sum %q, payload hashes %q)", res.ID, line.Sum, sum)
				return
			}
			if line.Fp != f.fp {
				abort("result %s carries fingerprint %q, coordinator wants %q", res.ID, line.Fp, f.fp)
				return
			}
			merged, merr := f.m.add(res, w.url)
			if errors.Is(merr, errSuspectOrigin) {
				// Convicted mid-stream by a concurrent audit; nothing
				// further from this worker merges.
				abort("convicted while streaming")
				return
			}
			if merr != nil {
				// Not durable: leave the job un-acked so a resume
				// re-runs it, and fail the run — the journal is gone.
				f.q.requeue(chunk, false)
				f.q.fail(fmt.Errorf("checkpoint: %w", merr))
				return
			}
			if merged && res.Status == campaign.StatusDone && f.auditPick(res.ID) {
				// Registered before the ack so the queue cannot close
				// with this audit unaccounted.
				f.q.beginAudit()
				f.auditWG.Add(1)
				vsum := campaign.SumBytes(res.Value)
				go func() {
					defer f.auditWG.Done()
					defer f.q.endAudit()
					f.audit(ctx, res.ID, vsum, w)
				}()
			}
			delete(outstanding, res.ID)
			f.q.ack(res.ID)
		}
		if line.Done != nil {
			sawTrailer = true
			trailerErr = line.Done.Error
			break
		}
	}

	if len(outstanding) > 0 {
		missing := make([]string, 0, len(outstanding))
		for _, id := range chunk {
			if outstanding[id] {
				missing = append(missing, id)
			}
		}
		// A trailer with missing jobs is a graceful worker drain (no
		// penalty); a cut stream is a dead or hung placement.
		f.q.requeue(missing, !sawTrailer)
		f.cfg.Logf("fabric: worker %s lost %d of %d jobs (trailer=%v err=%q); re-queued",
			w.url, len(missing), len(chunk), sawTrailer, trailerErr)
	}
	if sawTrailer {
		w.brk.RecordOutcome(false)
	} else {
		w.brk.RecordOutcome(true)
		w.setDown(true)
	}
}

// localLoop is the graceful-degradation path: while every worker is
// down at once, chunks execute in this process through the very same
// source runners, so the campaign makes progress instead of stalling.
// It never polls: it re-checks only when a worker turns down, when
// jobs go back to pending, or when the queue closes, so it starts on
// the all-down transition and exits the moment the campaign is done.
func (f *fabricRun) localLoop(ctx context.Context) {
	for ctx.Err() == nil {
		if f.allDown() {
			if chunk, ok := f.q.tryPop(f.chunk); ok {
				f.cfg.Logf("fabric: all %d workers down; running %d jobs locally", len(f.workers), len(chunk))
				f.runLocal(ctx, chunk)
				continue
			}
		}
		select {
		case <-f.downs:
		case <-f.q.ready:
		case <-f.q.done:
			return
		case <-ctx.Done():
			return
		}
	}
}

func (f *fabricRun) allDown() bool {
	for _, w := range f.workers {
		if !w.isDown() {
			return false
		}
	}
	return true
}

// runLocal executes one chunk in-process, merging and acking each
// result exactly as a worker stream would.
func (f *fabricRun) runLocal(ctx context.Context, chunk []string) {
	jobs, err := f.src.Jobs(chunk, f.cfg.Cache)
	if err != nil {
		f.q.fail(err)
		return
	}
	cfg := campaign.Config{
		Workers:    f.cfg.Parallel,
		JobTimeout: f.cfg.JobTimeout,
		Attempts:   f.cfg.Retries + 1,
		OnJobResult: func(res campaign.Result[json.RawMessage]) {
			// Local execution is the trust anchor ("" origin): it is
			// never audited and never convicted.
			if _, merr := f.m.add(res, ""); merr != nil {
				f.q.fail(fmt.Errorf("checkpoint: %w", merr))
				return
			}
			f.q.ack(res.ID)
		},
	}
	_, _ = campaign.Run(ctx, cfg, jobs)
	// Whatever the local run did not finish (drain) goes back; acked
	// jobs are skipped by requeue. Local execution is trusted — no
	// placement penalty.
	f.q.requeue(chunk, false)
}

// sleep waits d, or until the queue closes or ctx is done; false means
// stop looping.
func (f *fabricRun) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-f.q.done:
		return false
	case <-ctx.Done():
		return false
	}
}
