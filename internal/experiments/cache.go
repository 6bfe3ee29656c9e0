package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/faults"
	"ftspm/internal/resultcache"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
)

// This file keys experiment results for the content-addressed result
// cache (internal/resultcache). Every evaluation here is a pure
// function of its normalized options, so the cache key is the
// canonical digest of exactly the fields that determine the result —
// and nothing else. Performance knobs (Lanes, worker counts,
// checkpoint paths) are deliberately excluded: they change how fast a
// result is computed, never which bytes come out, so runs that differ
// only in those knobs share cache entries.
//
// The key's fault component isolates the fault/wear/recovery model.
// A lookup that matches on the problem but not on the fault model is a
// recorded bypass, never a hit — see the resultcache package docs.
//
// Single evaluations and sweep jobs share one key space: the sweep job
// for (workload, structure) under some Options caches the same entry a
// /v1/evaluate request for that triple hits, which is what makes the
// batch /v1/map endpoint a composition of per-pair cache lookups.

// Cache key kinds. Bump the version suffix when a result-affecting
// field is added, so old entries can never satisfy new semantics.
const (
	cacheKindEvaluate = "ftspm/evaluate/v1"
	cacheKindSoak     = "ftspm/soak-trial/v2" // v2: storm joined the fault half
)

// evaluateFault is the fault model of the single-shot evaluation
// pipeline: analytic AVF over the standard distribution, no live
// injection. It is a fixed marker — every evaluate shares it — but it
// keeps the two-part key shape so evaluate entries can never collide
// with a fault-model-bearing key space.
type evaluateFault struct {
	Model string `json:"model"`
}

// evaluateCacheKey keys one (workload, structure, options) evaluation.
// opts must already be normalized.
func evaluateCacheKey(workload string, s core.Structure, opts Options) (resultcache.Key, error) {
	base := struct {
		Workload  string          `json:"workload"`
		Structure string          `json:"structure"`
		Scale     float64         `json:"scale"`
		Budgets   core.Thresholds `json:"budgets"`
		Priority  core.Priority   `json:"priority"`
	}{workload, s.String(), opts.Scale, opts.Thresholds, opts.Priority}
	return resultcache.NewKey(cacheKindEvaluate, base, evaluateFault{Model: "analytic-avf"})
}

// soakFault is the fault/wear/recovery model of one soak trial — the
// component whose mismatch forces a bypass. Any knob that changes what
// faults occur or how the controller reacts to them lives here.
type soakFault struct {
	StrikesPerAccess float64                `json:"strikes_per_access"`
	Dist             faults.MBUDistribution `json:"dist"`
	Target           sim.InjectionTarget    `json:"target"`
	Seed             int64                  `json:"seed"`
	Recovery         *spm.RecoveryConfig    `json:"recovery"`
	Wear             *spm.WearConfig        `json:"wear"`
	// Storm is the correlated-storm model (normalized), nil for the
	// memoryless process. Its presence in the fault half means a
	// cached non-storm result can never satisfy a storm request (or
	// vice versa): the key mismatch is a recorded bypass, never a
	// hit.
	Storm *faults.StormConfig `json:"storm"`
}

// soakCacheKey keys one (structure, trial) soak job. opts must already
// be normalized. Trials (the campaign's trial count) and Lanes are
// excluded: per-trial results depend only on the derived seed, so
// campaigns of different sizes share entries.
func soakCacheKey(opts SoakOptions, s core.Structure, trial int) (resultcache.Key, error) {
	base := struct {
		Workload  string          `json:"workload"`
		Structure string          `json:"structure"`
		Trial     int             `json:"trial"`
		Scale     float64         `json:"scale"`
		Budgets   core.Thresholds `json:"budgets"`
		Priority  core.Priority   `json:"priority"`
	}{opts.Workload, s.String(), trial, opts.Scale, opts.Thresholds, opts.Priority}
	fault := soakFault{
		StrikesPerAccess: opts.StrikesPerAccess,
		Dist:             opts.Dist,
		Target:           opts.Target,
		Seed:             opts.Seed,
		Recovery:         opts.Recovery,
		Wear:             opts.Wear,
		Storm:            opts.Storm,
	}
	return resultcache.NewKey(cacheKindSoak, base, fault)
}

// CachedResult consults cache c (both tiers, no compute) for one job
// and, on a hit, synthesizes the finished result exactly as a fresh
// first-attempt run would have journaled it. The fabric coordinator
// uses this to merge hits instantly instead of placing the job on a
// worker. Because the cache stores the exact bytes the runner would
// have produced, campaign reports stay byte-identical either way.
func (s *JobSource) CachedResult(c *resultcache.Cache, id string) (campaign.Result[json.RawMessage], bool, error) {
	j, ok := s.jobs[id]
	if !ok {
		return campaign.Result[json.RawMessage]{}, false, fmt.Errorf("experiments: unknown job ID %q", id)
	}
	k, err := j.cacheKey()
	if err != nil {
		return campaign.Result[json.RawMessage]{}, false, err
	}
	v, ok := c.Get(k)
	if !ok {
		return campaign.Result[json.RawMessage]{}, false, nil
	}
	return campaign.Result[json.RawMessage]{
		ID:       id,
		Status:   campaign.StatusDone,
		Attempts: 1,
		Value:    json.RawMessage(v),
	}, true, nil
}

// cachedRun wraps one job runner in cache c: lookup (or collapse onto
// an identical in-flight run), compute on miss, store. The bytes
// returned are the runner's own marshaling either way.
func cachedRun(c *resultcache.Cache, k resultcache.Key, run func(context.Context) (json.RawMessage, error)) func(context.Context) (json.RawMessage, error) {
	return func(ctx context.Context) (json.RawMessage, error) {
		v, _, err := c.GetOrCompute(ctx, k, func(cctx context.Context) ([]byte, error) {
			return run(cctx)
		})
		return v, err
	}
}

// EvaluateCachedContext evaluates one workload × structure through the
// result cache: a hit (or a collapse onto a concurrent identical
// evaluation) is served from the cached bytes instead of running the
// pipeline. Each cache entry is decoded on its first hit only; later
// hits return that same decoded Outcome. A miss returns the Outcome it
// computed, with Profile cleared. Either way Profile is nil and the
// Outcome re-marshals to exactly the cached bytes. The second return
// reports whether the cache satisfied the call. A nil cache degrades
// to EvaluateByNameContext (Profile kept).
//
// The returned Outcome's maps and slices may be shared with other
// callers and with the cache: treat them as read-only.
func EvaluateCachedContext(ctx context.Context, c *resultcache.Cache, name string, structure core.Structure, opts Options) (Outcome, bool, error) {
	if c == nil {
		out, err := EvaluateByNameContext(ctx, name, structure, opts)
		return out, false, err
	}
	opts = opts.normalize()
	k, err := evaluateCacheKey(name, structure, opts)
	if err != nil {
		return Outcome{}, false, err
	}
	v, hit, err := c.GetOrComputeDecoded(ctx, k, decodeOutcome, func(cctx context.Context) (any, []byte, error) {
		out, err := EvaluateByNameContext(cctx, name, structure, opts)
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(out)
		if err != nil {
			return nil, nil, err
		}
		out.Profile = nil
		return &out, b, nil
	})
	if err != nil {
		return Outcome{}, false, err
	}
	return *v.(*Outcome), hit, nil
}

// decodeOutcome decodes cached evaluate bytes for GetOrComputeDecoded.
func decodeOutcome(b []byte) (any, error) {
	out := new(Outcome)
	if err := json.Unmarshal(b, out); err != nil {
		return nil, fmt.Errorf("experiments: decode cached outcome: %w", err)
	}
	return out, nil
}
