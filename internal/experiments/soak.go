package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/faults"
	"ftspm/internal/profile"
	"ftspm/internal/sim"
	"ftspm/internal/simd"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// This file implements the soak campaign: a Monte-Carlo stress run of
// the runtime error-recovery subsystem (spm.RecoveryConfig). Each trial
// executes the workload under live particle strikes — and optionally
// STT-RAM write wear — with a distinct seed, then audits the surviving
// SPM state. The aggregate answers the questions the single-shot
// evaluation cannot: how often a detected error is actually repaired,
// what leaks through as DUE or silent corruption, and how long a
// structure runs before wear forces it to degrade.

// SoakOptions parameterize a soak campaign. The zero value of every
// field selects a sensible default (see normalize).
type SoakOptions struct {
	// Workload names the executed workload (default: the case study).
	Workload string
	// Structure is the evaluated SPM organization (default FTSPM).
	Structure core.Structure
	// Trials is the number of independently-seeded runs (default 8).
	Trials int
	// Scale is the trace length relative to the reference (default
	// 0.05: soak wants many short trials, not one long one).
	Scale float64
	// StrikesPerAccess is the per-access strike probability.
	StrikesPerAccess float64
	// Dist gives strike multiplicities (zero value: faults.Dist40nm).
	Dist faults.MBUDistribution
	// Target selects the struck SPM(s).
	Target sim.InjectionTarget
	// Seed drives the campaign; trial t derives its streams from it.
	Seed int64
	// Recovery, when non-nil, enables the runtime recovery subsystem
	// with these settings. Nil runs the detection-only baseline.
	Recovery *spm.RecoveryConfig
	// Wear, when non-nil, applies STT-RAM write unreliability. Each
	// trial re-derives its wear seed, so wear-out sites vary per trial.
	Wear *spm.WearConfig
	// Storm, when non-nil, replaces the memoryless strike process with
	// the correlated fault storm (faults.StormConfig): Markov-modulated
	// bursts, spatially clustered events, thermal wear ramps, and
	// adversarial hot-block targeting. StrikesPerAccess is ignored —
	// the storm's calm intensity is the background rate. Storm trials
	// always run the scalar simulator: the packed engine rejects them
	// with simd.ErrUnsupported and the job falls back. Omitted from
	// JSON when nil so non-storm config hashes are unchanged.
	Storm *faults.StormConfig `json:",omitempty"`
	// Thresholds and Priority configure the MDA (defaults as in
	// DefaultOptions).
	Thresholds core.Thresholds
	// Priority selects the MDA optimization target.
	Priority core.Priority
	// Lanes caps the packed engine's scenarios per trace pass: 0 (auto)
	// packs up to 64 trials per pass, 1 forces the scalar path, 2..64
	// pack that many. Purely a performance knob — per-trial results are
	// byte-identical either way — so it is excluded from the campaign
	// config hash (checkpoints stay resumable across lane settings).
	Lanes int `json:"-"`
}

// Validate rejects out-of-range options as usage errors: negative
// Trials or Scale, a StrikesPerAccess outside [0, 1] (or NaN), and
// Lanes outside 0..simd.MaxLanes. Zero still selects the default. The
// soak CLI, the soak endpoint and SoakSource all check through it, so
// no value is silently clamped or defaulted.
func (o SoakOptions) Validate() error {
	switch {
	case o.Trials < 0:
		return campaign.Usagef("trials must be >= 0 (got %d)", o.Trials)
	case !(o.Scale >= 0):
		return campaign.Usagef("scale must be >= 0 (got %g)", o.Scale)
	case !(o.StrikesPerAccess >= 0 && o.StrikesPerAccess <= 1):
		return campaign.Usagef("strike must be a probability in [0, 1] (got %g)", o.StrikesPerAccess)
	case o.Lanes < 0 || o.Lanes > simd.MaxLanes:
		return campaign.Usagef("lanes must be in 0..%d (got %d)", simd.MaxLanes, o.Lanes)
	}
	return nil
}

// laneWidth resolves a valid Lanes knob to a batch width.
func laneWidth(lanes int) int {
	if lanes == 0 {
		return simd.MaxLanes
	}
	return lanes
}

func (o SoakOptions) normalize() SoakOptions {
	if o.Workload == "" {
		o.Workload = workloads.CaseStudyName
	}
	if !o.Structure.Valid() {
		o.Structure = core.StructFTSPM
	}
	if o.Trials <= 0 {
		o.Trials = 8
	}
	if o.Scale <= 0 {
		o.Scale = 0.05
	}
	if o.Dist == (faults.MBUDistribution{}) {
		o.Dist = faults.Dist40nm
	}
	def := DefaultOptions()
	if o.Thresholds == (core.Thresholds{}) {
		o.Thresholds = def.Thresholds
	}
	if !o.Priority.Valid() {
		o.Priority = def.Priority
	}
	if o.Storm != nil {
		st := o.Storm.Normalized()
		o.Storm = &st
	}
	return o
}

// FallbackCounts tallies the packed-engine declines that sent soak jobs
// to the scalar simulator, by cause. Every decline lands in exactly one
// field.
type FallbackCounts struct {
	// Wear, Storm and Adaptive count configurations with a wear model,
	// a fault storm or adaptive recovery attached.
	Wear     uint64 `json:"wear"`
	Storm    uint64 `json:"storm"`
	Adaptive uint64 `json:"adaptive"`
	// WideCodeword counts structures whose codewords exceed one lane
	// word.
	WideCodeword uint64 `json:"wide_codeword"`
	// Other counts the remaining declines: a codec without an
	// error-pattern classifier, or a recorded operation the packed
	// replay cannot reproduce.
	Other uint64 `json:"other"`
}

// Total returns the decline count over all causes.
func (c FallbackCounts) Total() uint64 {
	return c.Wear + c.Storm + c.Adaptive + c.WideCodeword + c.Other
}

// scalarFallbacks holds the process-wide FallbackCounts, surfaced on
// ftspmd's /healthz.
var scalarFallbacks struct {
	wear, storm, adaptive, wideCodeword, other atomic.Uint64
}

// ScalarFallbacks returns the process-wide scalar-fallback counts by
// cause.
func ScalarFallbacks() FallbackCounts {
	return FallbackCounts{
		Wear:         scalarFallbacks.wear.Load(),
		Storm:        scalarFallbacks.storm.Load(),
		Adaptive:     scalarFallbacks.adaptive.Load(),
		WideCodeword: scalarFallbacks.wideCodeword.Load(),
		Other:        scalarFallbacks.other.Load(),
	}
}

// ScalarFallbackCount returns the process-wide scalar-fallback count
// over all causes.
func ScalarFallbackCount() uint64 { return ScalarFallbacks().Total() }

// fallbackCounter returns the counter of a decline's cause.
func fallbackCounter(err error) *atomic.Uint64 {
	switch {
	case errors.Is(err, simd.ErrWear):
		return &scalarFallbacks.wear
	case errors.Is(err, simd.ErrStorm):
		return &scalarFallbacks.storm
	case errors.Is(err, simd.ErrAdaptive):
		return &scalarFallbacks.adaptive
	case errors.Is(err, simd.ErrWideCodeword):
		return &scalarFallbacks.wideCodeword
	default:
		return &scalarFallbacks.other
	}
}

// SoakReport aggregates a soak campaign.
type SoakReport struct {
	// Workload and Structure identify the campaign.
	Workload  string         `json:"workload"`
	Structure core.Structure `json:"structure"`
	// Trials is the number of completed runs.
	Trials int `json:"trials"`
	// PlannedTrials is the configured trial count, recorded only when it
	// differs from Trials — i.e. when the report was salvaged from an
	// interrupted or partially-failed campaign. Complete reports omit it
	// (and Incomplete), so their JSON is unchanged from earlier versions.
	PlannedTrials int `json:"planned_trials,omitempty"`
	// Incomplete marks a salvaged report whose campaign was drained or
	// lost trials to permanent failures; resuming from the checkpoint
	// runs the missing trials.
	Incomplete bool `json:"incomplete,omitempty"`
	// Accesses and Strikes are summed over all trials.
	Accesses uint64 `json:"accesses"`
	Strikes  uint64 `json:"strikes"`
	// Recovery is the summed recovery activity of both controllers over
	// all trials (FirstDegradedTick holds the earliest over the
	// campaign; per-trial means are in MeanTimeToDegraded).
	Recovery spm.RecoveryStats `json:"recovery"`
	// EndAudit is the summed end-of-run SPM audit: the error state left
	// standing after the last access (both SPMs).
	EndAudit faults.Tally `json:"end_audit"`
	// DegradedTrials counts trials where at least one block remapped or
	// demoted; MeanTimeToDegraded is the mean first-degradation tick
	// (in controller accesses) over those trials.
	DegradedTrials     int     `json:"degraded_trials"`
	MeanTimeToDegraded float64 `json:"mean_time_to_degraded"`
}

// RecoveredRate returns transparently-repaired error events per strike.
func (r SoakReport) RecoveredRate() float64 { return r.perStrike(float64(r.Recovery.Recovered())) }

// DUERate returns detected-but-unrecovered words per strike: the DUEs
// recovery gave up on plus the latent ones still standing at the end of
// the run.
func (r SoakReport) DUERate() float64 {
	return r.perStrike(float64(r.Recovery.DUEs()) + float64(r.EndAudit.DUE))
}

// SDCRate returns silently-corrupt words left at end of run per strike.
func (r SoakReport) SDCRate() float64 { return r.perStrike(float64(r.EndAudit.SDC)) }

func (r SoakReport) perStrike(n float64) float64 {
	if r.Strikes == 0 {
		return 0
	}
	return n / float64(r.Strikes)
}

// soakTrialResult is one trial's contribution. Fields are exported so
// checkpointed trials round-trip through the campaign journal.
type soakTrialResult struct {
	Accesses uint64            `json:"accesses"`
	Strikes  uint64            `json:"strikes"`
	Recovery spm.RecoveryStats `json:"recovery"`
	Audit    faults.Tally      `json:"audit"`
}

// soakShared is one soak source's shared state. The workload trace is
// materialized once and its profile computed once, shared read-only by
// every structure and trial. The rest is the source's batch board: the
// packed engine's lane batches of every structure (see packedState),
// which the source's jobs claim, compute and read under one mutex.
type soakShared struct {
	w      workloads.Workload
	opts   SoakOptions
	once   sync.Once
	events []trace.Event
	prof   *profile.Profile
	err    error

	// width is the lane batch width; the board is unused at width 1.
	width int
	// structs lists the source's structures in source order, the order
	// a helping job scans them in.
	structs []*soakStructShared
	// mu guards every structure's packedState and building; cond, over
	// mu, wakes the jobs waiting for a batch.
	mu   sync.Mutex
	cond sync.Cond
	// building is set while a structure's skeleton and engine are being
	// built: one build at a time keeps the board's allocation bursts to
	// one structure's, as when structures were set up one by one.
	building bool
	// batchHook, when non-nil, is called as each batch's packed pass
	// starts (after any engine build), with helped set when the
	// computing job is not one of the batch's own, and the function it
	// returns when the pass ends (a test seam).
	batchHook func(s core.Structure, b int, helped bool) (done func())
}

func newSoakShared(w workloads.Workload, opts SoakOptions) *soakShared {
	sh := &soakShared{w: w, opts: opts, width: laneWidth(opts.Lanes)}
	sh.cond.L = &sh.mu
	return sh
}

// structure returns the board slot of structure s, adding it on first
// use.
func (sh *soakShared) structure(s core.Structure) *soakStructShared {
	for _, ss := range sh.structs {
		if ss.structure == s {
			return ss
		}
	}
	ss := &soakStructShared{structure: s}
	if sh.width > 1 {
		n := (sh.opts.Trials + sh.width - 1) / sh.width
		ss.packed.wanted = make([]bool, n)
		ss.packed.results = make([][]soakTrialResult, n)
	}
	sh.structs = append(sh.structs, ss)
	return ss
}

func (sh *soakShared) ensure() error {
	sh.once.Do(func() {
		setups.Add(1)
		sh.events = sh.w.TraceEvents(sh.opts.Scale)
		sh.prof, sh.err = profile.Run(sh.w.Program(), trace.Replay(sh.events))
		if sh.err != nil {
			sh.err = fmt.Errorf("experiments: soak profile %s: %w", sh.w.Name, sh.err)
		}
	})
	if sh.err != nil {
		return sh.err
	}
	if sh.prof == nil {
		return fmt.Errorf("experiments: soak profile %s: unavailable (profiling panicked)", sh.w.Name)
	}
	return nil
}

// soakStructShared is the per-structure lazily-computed state: the spec
// and MDA placement every trial of that structure replays against, and
// its slot on the batch board when the packed engine applies.
type soakStructShared struct {
	structure core.Structure
	once      sync.Once
	spec      core.Spec
	place     spm.Placement
	// hotWindows are the adversarial storm targets (the footprints of
	// the profile's hottest placed blocks), computed once per
	// structure when the storm's HotBias is armed.
	hotWindows []faults.HotWindow
	err        error
	ready      bool
	packed     packedState
}

// packedState is one structure's slot on its source's batch board,
// guarded by soakShared.mu. Trials run on the packed engine in lane
// batches of width trials; batch b covers trials [b*width,
// (b+1)*width). A batch is computed once, by whichever job claims it,
// and lands here for its lane-mates to read.
//
// A structure computes one batch at a time on its one engine: busy
// marks the batch in flight (its skeleton and engine build included),
// so the claimed batch is the in-flight one. A job whose own batch is
// in flight does not idle: it helps, computing the first wanted batch
// of any idle structure, so both cores stay busy while dispatch walks
// one structure's trials. Engines are built one at a time per board
// (soakShared.building). Wanted batches are those covering the job IDs
// the source handed out (JobSource.Jobs, with or without a cache): a
// fabric worker given one chunk computes the chunk's batches and no
// others. Once every wanted batch has landed the engine is dropped; a
// later Jobs call that wants more rebuilds it.
//
// A configuration the engine rejects (or a wear model, which it has no
// lanes for) latches the slot off, counted once, and every job of the
// structure falls back to the scalar path. A computation that fails
// other than by a decline or its job's context, or panics, takes the
// structure out of helping: only its own jobs meet the failure again.
type packedState struct {
	off, busy, noHelp bool
	eng               *simd.Engine
	wanted            []bool
	results           [][]soakTrialResult // nil until the batch lands
	// open counts wanted batches not yet landed; no batch below next is
	// wanted and unlanded.
	open, next int
}

// want marks the batch covering trial t of ss as wanted (a no-op at
// width 1).
func (sh *soakShared) want(ss *soakStructShared, t int) {
	if sh.width <= 1 {
		return
	}
	ps, b := &ss.packed, t/sh.width
	sh.mu.Lock()
	if !ps.wanted[b] {
		ps.wanted[b] = true
		if ps.results[b] == nil {
			ps.open++
			ps.next = min(ps.next, b)
			sh.cond.Broadcast()
		}
	}
	sh.mu.Unlock()
}

// packedTrial returns trial t's packed result, computing its lane batch
// if no job has. ok=false means the packed path does not apply (caller
// runs the scalar trial). While its batch is in flight elsewhere the
// job helps with another wanted batch, or waits. Failures are returned
// uncached, so a retried or resumed job recomputes.
func (sh *soakShared) packedTrial(ctx context.Context, ss *soakStructShared, t int) (soakTrialResult, bool, error) {
	ps, b := &ss.packed, t/sh.width
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var stop func() bool
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	for {
		if ps.off {
			return soakTrialResult{}, false, nil
		}
		if res := ps.results[b]; res != nil {
			return res[t-b*sh.width], true, nil
		}
		if err := ctx.Err(); err != nil {
			return soakTrialResult{}, false, err
		}
		if sh.idle(ps) {
			if err := sh.compute(ctx, ss, b, false); err != nil && !errors.Is(err, simd.ErrUnsupported) {
				return soakTrialResult{}, false, err
			}
			continue
		}
		if hs, hb, ok := sh.helpable(); ok {
			// A decline or failure of the helped batch is latched on its
			// structure; only this job's own context ends this job.
			if err := sh.compute(ctx, hs, hb, true); err != nil && ctx.Err() != nil {
				return soakTrialResult{}, false, err
			}
			continue
		}
		if stop == nil && ctx.Done() != nil {
			stop = context.AfterFunc(ctx, func() {
				sh.mu.Lock()
				sh.cond.Broadcast()
				sh.mu.Unlock()
			})
		}
		sh.cond.Wait()
	}
}

// idle reports whether a batch of ps can start now: none is in flight,
// and its engine is built or no other engine is being built. The
// caller holds sh.mu.
func (sh *soakShared) idle(ps *packedState) bool {
	return !ps.busy && (ps.eng != nil || !sh.building)
}

// helpable returns the first wanted, unlanded batch, in source order,
// of an idle structure that is neither latched off nor out of helping.
// The caller holds sh.mu.
func (sh *soakShared) helpable() (*soakStructShared, int, bool) {
	for _, ss := range sh.structs {
		ps := &ss.packed
		if ps.off || ps.noHelp || ps.open == 0 || !sh.idle(ps) {
			continue
		}
		for ; ps.next < len(ps.wanted); ps.next++ {
			if ps.wanted[ps.next] && ps.results[ps.next] == nil {
				return ss, ps.next, true
			}
		}
	}
	return nil, 0, false
}

// compute claims batch b of ss and computes it under ctx, building the
// structure's engine first if it has none. The caller holds sh.mu,
// which compute releases while it works and holds again when it
// returns or panics; its deferred cleanup lands the batch, or
// un-claims it and latches a decline or failure, and wakes the
// waiters.
func (sh *soakShared) compute(ctx context.Context, ss *soakStructShared, b int, helped bool) (err error) {
	ps := &ss.packed
	ps.busy = true
	building := ps.eng == nil
	if building {
		sh.building = true
	}
	sh.mu.Unlock()
	var res []soakTrialResult
	defer func() {
		sh.mu.Lock()
		ps.busy = false
		if building {
			sh.building = false
		}
		switch {
		case res != nil:
			ps.results[b] = res
			if ps.wanted[b] {
				ps.open--
			}
			if ps.open == 0 {
				ps.eng = nil
			}
		case errors.Is(err, simd.ErrUnsupported):
			ps.off = true
			fallbackCounter(err).Add(1)
		case err == nil || ctx.Err() == nil:
			// A panic (err still nil) or a failure of the batch itself.
			ps.noHelp = true
		}
		sh.cond.Broadcast()
	}()
	if building {
		eng, err := sh.buildEngine(ctx, ss)
		sh.mu.Lock()
		ps.eng, sh.building, building = eng, false, false
		sh.cond.Broadcast()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	if sh.batchHook != nil {
		defer sh.batchHook(ss.structure, b, helped)()
	}
	res, err = packedBatch(ctx, ps.eng, sh.opts, b*sh.width, sh.width)
	return err
}

// buildEngine records the instrumented fault-free pass and builds the
// lane engine for one structure of the soak.
func (sh *soakShared) buildEngine(ctx context.Context, ss *soakStructShared) (*simd.Engine, error) {
	opts := sh.opts
	if opts.Wear != nil {
		// A wear model forks per-trial control flow, which lanes
		// sharing one trace pass cannot follow.
		return nil, simd.ErrWear
	}
	if err := ss.ensure(sh); err != nil {
		return nil, err
	}
	cfg := ss.spec.SimConfig(ss.place)
	if opts.Recovery != nil {
		rc := *opts.Recovery
		cfg.Recovery = &rc
	}
	if opts.Storm != nil {
		// Attach the storm so BuildSkeleton rejects it with
		// ErrUnsupported and the campaign falls back to the scalar
		// simulator (the storm process cannot be lane-packed).
		st := *opts.Storm
		cfg.Injection = &sim.InjectionConfig{Dist: opts.Dist, Target: opts.Target, Storm: &st}
	}
	sk, err := simd.BuildSkeleton(ctx, sh.w.Program(), cfg, sh.events)
	if err != nil {
		return nil, err
	}
	return simd.NewEngine(sk, simd.Injection{
		StrikesPerAccess: opts.StrikesPerAccess,
		Dist:             opts.Dist,
		Target:           opts.Target,
	})
}

// packedBatch runs the lane batch starting at trial t0 (up to width
// trials, clipped to the campaign's trial count) through one packed
// trace pass. Seeds derive exactly as in runSoakTrial, and RunBatch
// resets the engine per call, so batch results depend only on the
// seeds — byte-identical to the scalar path whichever batches run, in
// whatever order.
func packedBatch(ctx context.Context, eng *simd.Engine, opts SoakOptions, t0, width int) ([]soakTrialResult, error) {
	n := width
	if t0+n > opts.Trials {
		n = opts.Trials - t0
	}
	seeds := make([]int64, n)
	for i := 0; i < n; i++ {
		seeds[i] = opts.Seed + int64(t0+i)*soakTrialStride
	}
	batch := make([]simd.TrialResult, n)
	if err := eng.RunBatch(ctx, seeds, batch); err != nil {
		return nil, err
	}
	out := make([]soakTrialResult, n)
	for i := 0; i < n; i++ {
		out[i] = soakTrialResult{
			Accesses: batch[i].Accesses,
			Strikes:  batch[i].Strikes,
			Recovery: batch[i].Recovery,
			Audit:    batch[i].Audit,
		}
	}
	return out, nil
}

func (ss *soakStructShared) ensure(sh *soakShared) error {
	if err := sh.ensure(); err != nil {
		return err
	}
	ss.once.Do(func() {
		setups.Add(1)
		ss.spec, ss.err = core.NewSpec(ss.structure)
		if ss.err != nil {
			return
		}
		var mapping core.Mapping
		mapping, ss.err = core.MapBlocks(sh.prof, ss.spec, sh.opts.Thresholds, sh.opts.Priority)
		if ss.err != nil {
			ss.err = fmt.Errorf("experiments: soak map %s/%v: %w", sh.w.Name, ss.structure, ss.err)
			return
		}
		ss.place = mapping.Placement
		if st := sh.opts.Storm; st != nil && st.HotBias > 0 {
			ss.hotWindows = computeHotWindows(ss.spec, ss.place, sh.prof, st.HotBlocks)
		}
		ss.ready = true
	})
	if ss.err != nil {
		return ss.err
	}
	if !ss.ready {
		return fmt.Errorf("experiments: soak map %s/%v: unavailable (mapping panicked)", sh.w.Name, ss.structure)
	}
	return nil
}

// soakTrialStride derives trial t's injection seed as Seed + t*stride
// (prime: keeps per-trial seeds distinct). The packed and scalar paths
// share it, which is what makes their per-trial results comparable at
// all.
const soakTrialStride = 1_000_003

// soakJobID is the deterministic identity of one (structure, trial)
// job; workload, scale, seed, and every other knob are carried by the
// campaign's config hash.
func soakJobID(s core.Structure, trial int) string {
	return fmt.Sprintf("soak/%v/trial/%d", s, trial)
}

// soakConfigHash fingerprints everything that determines a soak trial's
// result; structures are the canonical structure names.
func soakConfigHash(opts SoakOptions, structures []string) (string, error) {
	return campaign.HashJSON(struct {
		Kind       string
		Options    SoakOptions
		Structures []string
	}{Kind: KindSoak, Options: opts, Structures: structures})
}

// RunSoakCampaign is RunSoakOn on the in-process runner cc.RunLocal.
// It remains only because the benchmark harness in perfbench/ imports
// it.
func RunSoakCampaign(ctx context.Context, base SoakOptions, structures []core.Structure,
	cc CampaignConfig) ([]*SoakReport, *CampaignStatus, error) {
	return RunSoakOn(ctx, base, structures, cc.RunLocal)
}

// RunSoakOn executes the soak as a crash-safe campaign over every
// (structure, trial) pair, its jobs run on exec as in RunSweepOn:
// base.Trials seeded runs of the workload on each listed structure, one
// job per trial on the bounded worker pool. On the packed engine a
// job's trial is one lane of a batch that the first free job computes
// for all its lane-mates, and a job whose batch is in flight computes
// another structure's meanwhile (see packedState). Trial t uses the
// same derived seeds on every structure, so the structures face
// identical strike streams (a paired comparison). The trace is
// materialized once and replayed read-only by every trial.
//
// One report per structure is returned in input order, aggregating the
// trials in trial order so the result is deterministic regardless of
// scheduling — and byte-identical whether the campaign ran through or
// was interrupted and resumed from its checkpoint. A trial that panics
// or errors fails alone (recorded in the status with its stack); a
// cancelled context drains in-flight trials, salvages the finished
// ones into reports marked Incomplete, and returns an error wrapping
// campaign.ErrIncomplete.
func RunSoakOn(ctx context.Context, base SoakOptions, structures []core.Structure,
	exec Executor) ([]*SoakReport, *CampaignStatus, error) {
	src, err := SoakSource(base, structures)
	if err != nil {
		return nil, nil, err
	}
	raw, runErr := exec(ctx, src)
	if raw == nil {
		return nil, nil, runErr
	}
	reports, status, err := src.AssembleSoak(raw)
	if err != nil {
		return nil, nil, err
	}
	return reports, status, runErr
}

// runSoakJobBody is the body of one (structure, trial) soak job, shared
// by the local campaign path and the distributed fabric's job source.
func runSoakJobBody(ctx context.Context, sh *soakShared, ss *soakStructShared, t int) (soakTrialResult, error) {
	if err := ss.ensure(sh); err != nil {
		return soakTrialResult{}, err
	}
	// Packed fast path: up to 64 trials advance through one trace
	// pass. Wear models and unsupported configurations fall back to the
	// scalar simulator.
	if sh.width > 1 {
		res, ok, err := sh.packedTrial(ctx, ss, t)
		if err != nil {
			return soakTrialResult{}, fmt.Errorf("experiments: soak trial %d: %w", t, err)
		}
		if ok {
			return res, nil
		}
	}
	res, err := runSoakTrial(ctx, sh.w, ss.spec, ss.place, ss.hotWindows, sh.events, sh.opts, t)
	if err != nil {
		return soakTrialResult{}, fmt.Errorf("experiments: soak trial %d: %w", t, err)
	}
	return res, nil
}

// aggregateSoak folds completed trials into one report, in trial order.
func aggregateSoak(workload string, s core.Structure, planned int, trials []soakTrialResult) *SoakReport {
	rep := &SoakReport{Workload: workload, Structure: s, Trials: len(trials)}
	if len(trials) != planned {
		rep.PlannedTrials = planned
		rep.Incomplete = true
	}
	var degradedSum float64
	for _, tr := range trials {
		rep.Accesses += tr.Accesses
		rep.Strikes += tr.Strikes
		rep.Recovery.Add(tr.Recovery)
		rep.EndAudit.Benign += tr.Audit.Benign
		rep.EndAudit.DRE += tr.Audit.DRE
		rep.EndAudit.DUE += tr.Audit.DUE
		rep.EndAudit.SDC += tr.Audit.SDC
		if tr.Recovery.FirstDegradedTick > 0 {
			rep.DegradedTrials++
			degradedSum += float64(tr.Recovery.FirstDegradedTick)
		}
	}
	if rep.DegradedTrials > 0 {
		rep.MeanTimeToDegraded = degradedSum / float64(rep.DegradedTrials)
	}
	return rep
}

// runSoakTrial executes one seeded trial. Every random stream (strikes,
// wear) is derived from the campaign seed and the trial index, so the
// campaign is reproducible and its trials are independent. The trial's
// simulation loop polls ctx, so a per-job deadline stops it promptly.
func runSoakTrial(ctx context.Context, w workloads.Workload, spec core.Spec, place spm.Placement,
	hot []faults.HotWindow, events []trace.Event, opts SoakOptions, t int) (soakTrialResult, error) {
	cfg := spec.SimConfig(place)
	if opts.StrikesPerAccess > 0 || opts.Storm != nil {
		cfg.Injection = &sim.InjectionConfig{
			StrikesPerAccess: opts.StrikesPerAccess,
			Dist:             opts.Dist,
			Seed:             opts.Seed + int64(t)*soakTrialStride,
			Target:           opts.Target,
		}
		if opts.Storm != nil {
			st := *opts.Storm
			cfg.Injection.Storm = &st
			cfg.Injection.HotWindows = hot
		}
	}
	if opts.Recovery != nil {
		rc := *opts.Recovery
		cfg.Recovery = &rc
	}
	if opts.Wear != nil {
		wc := *opts.Wear
		wc.Seed = opts.Seed + wc.Seed + int64(t)*soakTrialStride + 1
		cfg.Wear = &wc
	}
	m, err := sim.New(w.Program(), cfg)
	if err != nil {
		return soakTrialResult{}, err
	}
	res, err := m.RunContext(ctx, trace.Replay(events))
	if err != nil {
		return soakTrialResult{}, err
	}
	audit := m.DataSPM().Audit()
	iAudit := m.InstSPM().Audit()
	audit.Benign += iAudit.Benign
	audit.DRE += iAudit.DRE
	audit.DUE += iAudit.DUE
	audit.SDC += iAudit.SDC
	return soakTrialResult{
		Accesses: res.Accesses,
		Strikes:  res.InjectedStrikes,
		Recovery: res.RecoveryTotals(),
		Audit:    audit,
	}, nil
}
