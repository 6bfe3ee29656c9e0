package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/fabric/wire"
	"ftspm/internal/resultcache"
	"ftspm/internal/spm"
)

// Config parameterizes the daemon. The zero value of every field
// selects the default in parentheses.
type Config struct {
	// DataDir holds the per-job campaign checkpoints (required).
	DataDir string
	// MaxEvaluate bounds concurrently-running synchronous evaluates
	// (GOMAXPROCS via the limiter default of 4).
	MaxEvaluate int
	// EvaluateQueue bounds evaluates waiting for a slot; beyond it the
	// server sheds with 429 (2 × MaxEvaluate).
	EvaluateQueue int
	// MaxCampaigns bounds concurrently-running async campaign jobs (1).
	MaxCampaigns int
	// CampaignQueue bounds queued campaign jobs (4).
	CampaignQueue int
	// MaxFabric bounds concurrently-executing fabric chunks (1).
	MaxFabric int
	// FabricQueue bounds fabric chunks waiting for a slot; beyond it
	// the worker sheds with 429 so the coordinator places the chunk
	// elsewhere (2).
	FabricQueue int
	// DefaultTimeout is the evaluate deadline when the request does not
	// carry one (30s); MaxTimeout clamps client-supplied deadlines
	// (2m).
	DefaultTimeout, MaxTimeout time.Duration
	// RetryAfter is the base unit of the Retry-After hint on shed
	// responses, scaled by the backlog (250ms).
	RetryAfter time.Duration
	// DefaultScale is the evaluate/sweep trace scale when the request
	// does not set one (0 = the experiments default).
	DefaultScale float64
	// Breaker configures the readiness circuit breaker.
	Breaker BreakerConfig
	// Fingerprint overrides the build fingerprint served on /healthz
	// and stamped on fabric result lines (default wire.Fingerprint()).
	// An override is an operator's escape hatch — and the test seam for
	// version-skew scenarios.
	Fingerprint string
	// ChaosCorruptFrac, when > 0, makes the fabric endpoint corrupt
	// that fraction of streamed result payloads — recomputing the
	// attestation sum over the corrupted bytes, so the corruption is
	// NOT detectable by hash check, only by audit re-execution. It
	// exists for integrity drills (scripts/integrity_smoke.sh): a
	// deliberate byzantine worker to verify the coordinator's audit
	// machinery quarantines it. Never set it in production.
	ChaosCorruptFrac float64
	// NoCache disables the content-addressed result cache; every
	// request recomputes. CachePath, when set, adds the cache's on-disk
	// tier (an append-only segment under the operator's chosen path,
	// versioned by the build fingerprint) so memoized results survive
	// daemon restarts. CacheEntries/CacheBytes bound the in-memory tier
	// (0 = resultcache defaults).
	NoCache      bool
	CachePath    string
	CacheEntries int
	CacheBytes   int64
}

func (c Config) withDefaults() Config {
	if c.MaxEvaluate <= 0 {
		c.MaxEvaluate = 4
	}
	if c.EvaluateQueue <= 0 {
		c.EvaluateQueue = 2 * c.MaxEvaluate
	}
	if c.MaxCampaigns <= 0 {
		c.MaxCampaigns = 1
	}
	if c.CampaignQueue <= 0 {
		c.CampaignQueue = 4
	}
	if c.MaxFabric <= 0 {
		c.MaxFabric = 1
	}
	if c.FabricQueue <= 0 {
		c.FabricQueue = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.Fingerprint == "" {
		c.Fingerprint = wire.Fingerprint()
	}
	return c
}

// Server is the ftspmd request-handling core: admission control, load
// shedding, deadlines, panic isolation, the readiness circuit breaker,
// the async job registry, and graceful drain. It is transport-agnostic
// — the caller owns the http.Server wrapping Handler().
type Server struct {
	cfg     Config
	evalLim *limiter
	campLim *limiter
	fabLim  *limiter
	brk     *Breaker
	jobs    *jobSet
	mux     *http.ServeMux
	// cache is the content-addressed result cache behind every
	// endpoint (nil with Config.NoCache). It is a trust anchor: only
	// results this process computed enter it — never bytes received
	// from remote workers — so a cache hit is always as trustworthy as
	// a local run.
	cache *resultcache.Cache

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup
	draining   atomic.Bool
	// inFlight counts executing work units — running async jobs plus
	// fabric chunks — for the /healthz load report.
	inFlight atomic.Int64
	// stormJobs counts soak campaigns served in storm mode (/healthz).
	stormJobs atomic.Uint64

	// nowFn and evalFn are test seams: the clock, and the synchronous
	// evaluation body (replaced by overload tests with gated stubs).
	nowFn  func() time.Time
	evalFn func(ctx context.Context, req EvaluateRequest, structure core.Structure) (*EvaluateResponse, error)
}

// New builds a Server and creates its data dir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: data dir: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		evalLim: newLimiter("evaluate", cfg.MaxEvaluate, cfg.EvaluateQueue),
		campLim: newLimiter("campaign", cfg.MaxCampaigns, cfg.CampaignQueue),
		fabLim:  newLimiter("fabric", cfg.MaxFabric, cfg.FabricQueue),
		jobs:    newJobSet(),
		nowFn:   time.Now,
	}
	s.brk = NewBreaker(cfg.Breaker, func() time.Time { return s.nowFn() })
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.evalFn = s.evaluate
	if !cfg.NoCache {
		cache, err := resultcache.Open(resultcache.Config{
			MaxEntries:  cfg.CacheEntries,
			MaxBytes:    cfg.CacheBytes,
			Path:        cfg.CachePath,
			Fingerprint: cfg.Fingerprint,
		})
		if err != nil {
			return nil, fmt.Errorf("server: result cache: %w", err)
		}
		s.cache = cache
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/map", s.handleMap)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/soak", s.handleSoak)
	s.mux.HandleFunc("POST /v1/fabric", s.handleFabric)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s, nil
}

// Handler returns the HTTP handler with panic isolation applied: a
// panicking request answers 500 alone (and counts as an error outcome
// on the breaker) while the process keeps serving.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.brk.RecordOutcome(true)
				// Best-effort: if the handler already wrote, this is a no-op.
				writeJSON(w, http.StatusInternalServerError, ErrorResponse{
					Error: fmt.Sprintf("internal panic: %v", p),
				})
				_ = debug.Stack() // keep the stack retrievable under a debugger
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Draining reports whether the server has begun its drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops the server: admission closes (submit
// endpoints answer 503, /readyz goes not-ready), every in-flight async
// job's context is canceled — which makes its campaign finish the sim
// jobs already running, journal them, and return incomplete — and
// Drain waits for all job goroutines to settle or ctx to expire.
// In-flight synchronous evaluates are the transport's to drain
// (http.Server.Shutdown waits for them); their request contexts are
// deliberately left alone so they finish within their own deadlines.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.baseCancel(errDraining)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.cache != nil {
			// Release the disk tier only after every job settled; the
			// segment is complete and survives the restart.
			return s.cache.Close()
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", context.Cause(ctx))
	}
}

// timeout clamps a client-requested deadline into [1ms, MaxTimeout],
// defaulting when unset.
func (s *Server) timeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// evaluate is the production evaluation body behind /v1/evaluate. It
// runs through the result cache: a repeated (workload, structure,
// scale) request — or one whose sub-problem an earlier sweep already
// computed — is served from the cache entry's reply fragment, encoded
// once on the entry's first hit, instead of simulating, and concurrent
// identical requests collapse onto one execution. The response body is
// byte-identical either way, and to the NoCache path's; cache status
// travels in the X-Ftspm-Cache header only.
func (s *Server) evaluate(ctx context.Context, req EvaluateRequest, structure core.Structure) (*EvaluateResponse, error) {
	opts := experiments.Options{Scale: req.Scale}
	if opts.Scale == 0 {
		opts.Scale = s.cfg.DefaultScale
	}
	if s.cache == nil {
		out, err := experiments.EvaluateByNameContext(ctx, req.Workload, structure, opts)
		if err != nil {
			return nil, err
		}
		return &EvaluateResponse{Run: experiments.SummarizeOutcome(out)}, nil
	}
	sv, hit, err := experiments.EvaluateServed(ctx, s.cache, req.Workload, structure, opts)
	if err != nil {
		return nil, err
	}
	return &EvaluateResponse{cached: hit, head: sv.Evaluate}, nil
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining", s.cfg.RetryAfter)
		return
	}
	var req EvaluateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest, "workload is required", 0)
		return
	}
	if req.Scale < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("scale must be >= 0 (got %g)", req.Scale), 0)
		return
	}
	structure, err := core.ParseStructure(req.Structure)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()

	sl, admitErr := s.evalLim.admit()
	if admitErr != nil {
		s.brk.RecordShed()
		writeError(w, http.StatusTooManyRequests, "evaluate queue full",
			s.evalLim.retryAfter(s.cfg.RetryAfter))
		return
	}
	if err := sl.wait(ctx); err != nil {
		// Admitted but the deadline ran out in the queue: saturation,
		// not a server fault.
		s.brk.RecordShed()
		writeError(w, http.StatusServiceUnavailable, "deadline exceeded while queued",
			s.evalLim.retryAfter(s.cfg.RetryAfter))
		return
	}
	defer sl.release()

	start := s.nowFn()
	resp, err := s.evalFn(ctx, req, structure)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.brk.RecordOutcome(true)
			writeError(w, http.StatusGatewayTimeout, "evaluation deadline exceeded", 0)
		case errors.Is(err, context.Canceled):
			// The client went away; the response is a formality.
			writeError(w, http.StatusServiceUnavailable, "evaluation canceled", 0)
		case errors.Is(err, experiments.ErrUnknownWorkload):
			writeError(w, http.StatusBadRequest, err.Error(), 0)
		default:
			s.brk.RecordOutcome(true)
			writeError(w, http.StatusInternalServerError, err.Error(), 0)
		}
		return
	}
	s.brk.RecordOutcome(false)
	resp.ElapsedMS = s.nowFn().Sub(start).Milliseconds()
	// Cache status is a header, not a body field: cached and uncached
	// responses must stay byte-identical.
	if resp.cached {
		w.Header().Set("X-Ftspm-Cache", "hit")
	} else {
		w.Header().Set("X-Ftspm-Cache", "miss")
	}
	if resp.head == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	body := append(make([]byte, 0, len(resp.head)+24), resp.head...)
	writeBody(w, append(strconv.AppendInt(body, resp.ElapsedMS, 10), "\n}\n"...))
}

// checkpointName validates client-chosen checkpoint file names: a
// single path component, no separators or dot-traversal.
var checkpointName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// checkCheckpoint rejects a client-chosen checkpoint name that is not
// a single safe path component. "" (the job's default name) passes.
func checkCheckpoint(name string) error {
	if name != "" && (!checkpointName.MatchString(name) || name == "." || name == "..") {
		return fmt.Errorf("invalid checkpoint name %q (single path component, [A-Za-z0-9._-])", name)
	}
	return nil
}

// config checks the block and returns the campaign config it asks for,
// over the server's result cache. The job sets Checkpoint to its
// resolved journal path.
func (c CampaignRequest) config(cache *resultcache.Cache) (experiments.CampaignConfig, error) {
	if c.Resume && c.Checkpoint == "" {
		return experiments.CampaignConfig{}, errors.New("resume requires a named checkpoint")
	}
	if err := checkCheckpoint(c.Checkpoint); err != nil {
		return experiments.CampaignConfig{}, err
	}
	return experiments.CampaignConfig{
		Resume:     c.Resume,
		Workers:    c.Workers,
		Retries:    c.Retries,
		JobTimeout: time.Duration(c.JobTimeoutMS) * time.Millisecond,
		Cache:      cache,
	}, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	cc, err := req.config(s.cache)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if req.Scale < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("scale must be >= 0 (got %g)", req.Scale), 0)
		return
	}
	opts := experiments.Options{Scale: req.Scale}
	if opts.Scale == 0 {
		opts.Scale = s.cfg.DefaultScale
	}
	s.submitJob(w, "sweep", req.Checkpoint, false, func(ctx context.Context, ckptPath string) (json.RawMessage, error) {
		cc.Checkpoint = ckptPath
		sw, status, runErr := experiments.RunSweepOn(ctx, opts, cc.RunLocal)
		if sw == nil {
			return nil, runErr
		}
		sum, err := experiments.SummarizePartial(sw, status)
		if err != nil {
			return nil, err
		}
		payload, err := json.Marshal(sum)
		if err != nil {
			return nil, err
		}
		return payload, runErr
	})
}

func (s *Server) handleSoak(w http.ResponseWriter, r *http.Request) {
	var req SoakRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	cc, err := req.config(s.cache)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
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
	strike := req.Strike
	if strike == 0 && req.Storm == nil {
		strike = 0.01
	}
	opts := experiments.SoakOptions{
		Workload:         req.Workload,
		Trials:           req.Trials,
		Scale:            req.Scale,
		StrikesPerAccess: strike,
		Seed:             req.Seed,
		Lanes:            req.Lanes,
		Storm:            req.Storm,
	}
	if err := opts.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if !req.NoRecovery {
		rec := spm.DefaultRecovery()
		if req.AdaptiveScrub {
			ad := spm.DefaultAdaptive()
			rec.Adaptive = &ad
		}
		opts.Recovery = &rec
	}
	s.submitJob(w, "soak", req.Checkpoint, req.Storm != nil, func(ctx context.Context, ckptPath string) (json.RawMessage, error) {
		cc.Checkpoint = ckptPath
		reports, status, runErr := experiments.RunSoakOn(ctx, opts, structures, cc.RunLocal)
		if reports == nil {
			return nil, runErr
		}
		res := SoakResult{Reports: reports}
		if status != nil && (status.Incomplete || len(status.Failures) > 0) {
			res.Campaign = status
		}
		payload, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		return payload, runErr
	})
}

// submitJob is the shared async-submit path: admission, registration,
// and the worker goroutine. ckpt was checked by CampaignRequest.config;
// "" names the journal after the job. A storm soak counts toward the
// /healthz storm jobs once it is registered. fn receives the job
// context (canceled by client cancel or server drain — either way the
// campaign drains in-flight sim jobs, journals them, and returns
// wrapping campaign.ErrIncomplete) and may return a salvaged payload
// alongside a non-nil error.
func (s *Server) submitJob(w http.ResponseWriter, kind, ckpt string, storm bool,
	fn func(ctx context.Context, ckptPath string) (json.RawMessage, error)) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining", s.cfg.RetryAfter)
		return
	}
	sl, admitErr := s.campLim.admit()
	if admitErr != nil {
		s.brk.RecordShed()
		writeError(w, http.StatusTooManyRequests, "campaign queue full",
			s.campLim.retryAfter(s.cfg.RetryAfter))
		return
	}
	j := s.jobs.create(kind, "", s.nowFn())
	if storm {
		s.stormJobs.Add(1)
	}
	if ckpt == "" {
		ckpt = j.id + ".ckpt"
	}
	j.checkpoint = ckpt
	jctx, cancel := context.WithCancelCause(s.baseCtx)
	j.cancel = cancel
	s.wg.Add(1)
	go s.runJob(j, sl, jctx, fn)
	writeJSON(w, http.StatusAccepted, j.status())
}

// runJob drives one async job through its lifecycle on a worker
// goroutine: wait for a class slot, run the campaign, classify the
// outcome. A panic in the aggregation path fails the job alone.
func (s *Server) runJob(j *job, sl *slot, jctx context.Context,
	fn func(ctx context.Context, ckptPath string) (json.RawMessage, error)) {
	defer s.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			s.brk.RecordOutcome(true)
			j.finish(s.nowFn(), JobFailed,
				fmt.Sprintf("panic: %v\n%s", p, debug.Stack()), nil, false)
		}
	}()

	if err := sl.wait(jctx); err != nil {
		// Canceled or drained while still queued: the campaign never
		// started, so there is no checkpoint to resume.
		state, msg := JobInterrupted, "drained before start"
		if context.Cause(jctx) == errJobCanceled {
			state, msg = JobCanceled, "canceled before start"
		}
		j.finish(s.nowFn(), state, msg, nil, false)
		return
	}
	defer sl.release()

	j.setRunning(s.nowFn())
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	payload, err := fn(jctx, filepath.Join(s.cfg.DataDir, j.checkpoint))
	switch {
	case err == nil:
		s.brk.RecordOutcome(false)
		j.finish(s.nowFn(), JobDone, "", payload, false)
	case errors.Is(err, campaign.ErrIncomplete):
		// Drained or canceled mid-campaign: finished sim jobs are
		// journaled; the job resumes byte-identically from its
		// checkpoint. Not a server fault — the breaker ignores it.
		state := JobInterrupted
		if context.Cause(jctx) == errJobCanceled {
			state = JobCanceled
		}
		j.finish(s.nowFn(), state, err.Error(), payload, true)
	default:
		s.brk.RecordOutcome(true)
		j.finish(s.nowFn(), JobFailed, err.Error(), payload, false)
	}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, JobList{Jobs: s.jobs.list()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	if j.cancel != nil {
		j.cancel(errJobCanceled)
	}
	// Canceling a finished job is a no-op; the status tells the client
	// what actually happened.
	writeJSON(w, http.StatusOK, j.status())
}

// handleHealthz is the liveness endpoint, extended with the load
// signals the fabric coordinator's health probe uses for load-aware
// placement: in-flight work, per-class admission backlog, and breaker
// state. A live-but-loaded worker still answers 200 — load steers
// placement, it does not fail the probe.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := HealthStatus{
		Status:       "ok",
		Draining:     s.draining.Load(),
		Breaker:      s.brk.State(),
		InFlightJobs: s.inFlight.Load(),
		Fingerprint:  s.cfg.Fingerprint,
		Evaluate:     s.evalLim.status(),
		Campaign:     s.campLim.status(),
		Fabric:       s.fabLim.status(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	fallbacks := experiments.ScalarFallbacks()
	st.Storm = &StormHealth{
		Jobs:                 s.stormJobs.Load(),
		ScalarFallbacks:      fallbacks.Total(),
		ScalarFallbackCauses: fallbacks,
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := ReadyStatus{
		Draining: s.draining.Load(),
		Breaker:  s.brk.State(),
		Evaluate: s.evalLim.status(),
		Campaign: s.campLim.status(),
	}
	st.Ready = !st.Draining && st.Breaker == "closed"
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// decodeBody strictly decodes a bounded JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client hung up; nothing useful to do
}

// writeBody writes a 200 reply joined from encoded-once fragments
// (see experiments.Served): the bytes writeJSON writes for the same
// reply, in one Write as writeJSON makes it.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // the client hung up; nothing useful to do
}

// writeError writes the uniform error body; retryAfter > 0 additionally
// sets the Retry-After header (whole seconds, rounded up, minimum 1 —
// the standard header has no sub-second form).
func writeError(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	body := ErrorResponse{Error: msg}
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		body.RetryAfterMS = retryAfter.Milliseconds()
	}
	writeJSON(w, code, body)
}
