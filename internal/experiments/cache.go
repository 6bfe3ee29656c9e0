package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

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

// evaluateFaultDigest is the fault part of every evaluate key, digested
// on first use rather than at package init.
var evaluateFaultDigest = sync.OnceValues(func() (string, error) {
	blob, err := resultcache.CanonicalJSON(evaluateFault{Model: "analytic-avf"})
	if err != nil {
		return "", fmt.Errorf("resultcache: fault key: %w", err)
	}
	return resultcache.Digest(cacheKindEvaluate, blob), nil
})

// evaluateKeyBase is the base part of an evaluate key, with its JSON
// fields in sorted name order at every level: one json.Marshal of it
// writes exactly what resultcache.CanonicalJSON makes of the same
// fields, so evaluateCacheKey derives resultcache.NewKey's key without
// the canonicalizing round trip. The equality holds for every valid
// UTF-8 workload string (CanonicalJSON's round trip would turn an
// invalid byte's \ufffd escape into the raw rune), and
// FuzzEvaluateKeyCanonical pins it.
type evaluateKeyBase struct {
	Budgets sortedThresholds `json:"budgets"`
	// Priority is a float64 because CanonicalJSON reads every number
	// back as one: a priority beyond 2^53 keys as its nearest float.
	Priority  float64 `json:"priority"`
	Scale     float64 `json:"scale"`
	Structure string  `json:"structure"`
	Workload  string  `json:"workload"`
}

// sortedThresholds is core.Thresholds with its fields in sorted name
// order, the order CanonicalJSON gives the untagged struct's keys.
// TestSortedThresholdsMatchCore fails when core.Thresholds gains a
// field this copy lacks.
type sortedThresholds struct {
	CellWriteFraction float64
	EnergyOverhead    float64
	PerfOverhead      float64
	WriteFraction     float64
}

// evaluateCacheKey keys one (workload, structure, options) evaluation.
// opts must already be normalized. The key equals
// resultcache.NewKey(cacheKindEvaluate, base, evaluateFault{...}) of
// the same fields (see evaluateKeyBase), so entries already cached,
// in memory or in a disk segment, still match.
func evaluateCacheKey(workload string, s core.Structure, opts Options) (resultcache.Key, error) {
	fault, err := evaluateFaultDigest()
	if err != nil {
		return resultcache.Key{}, err
	}
	t := opts.Thresholds
	blob, err := json.Marshal(evaluateKeyBase{
		Budgets: sortedThresholds{
			CellWriteFraction: t.CellWriteFraction,
			EnergyOverhead:    t.EnergyOverhead,
			PerfOverhead:      t.PerfOverhead,
			WriteFraction:     t.WriteFraction,
		},
		Priority:  float64(opts.Priority),
		Scale:     opts.Scale,
		Structure: s.String(),
		Workload:  workload,
	})
	if err != nil {
		return resultcache.Key{}, fmt.Errorf("resultcache: base key: %w", err)
	}
	return resultcache.Key{Base: resultcache.Digest(cacheKindEvaluate, blob), Fault: fault}, nil
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

// Served is an evaluate cache entry in the forms ftspmd answers with:
// the decoded Outcome, plus two reply fragments encoded once and
// indented at the depth where they sit in a reply, so a warm
// /v1/evaluate or /v1/map copies bytes instead of encoding the entry
// again. It is the memo of every evaluate entry (see
// resultcache.Cache.GetOrComputeDecoded) and is shared: treat it, the
// Outcome's maps and slices included, as read-only.
type Served struct {
	Outcome Outcome
	// Evaluate is the /v1/evaluate reply body up to its elapsed_ms
	// value: `{"run": <RunSummary>, "elapsed_ms": ` as the server's
	// two-space indented encoding writes it.
	Evaluate []byte
	// Entry is the entry's MapEntry indented at depth 2, as it sits in
	// the entries array of a /v1/map reply.
	Entry []byte
}

// EvaluateServed evaluates one workload × structure through cache c,
// which must not be nil, and returns the entry's served form. A hit
// (or a collapse onto a concurrent identical evaluation) is served
// from the cache instead of running the pipeline; each entry builds
// its Served on its first hit only, and later hits return that same
// value. A miss builds a Served from the Outcome it computed, with
// Profile cleared, and returns it without memoizing it; a collapsed
// waiter decodes the bytes it received. Either way the Outcome
// (Profile nil) marshals to exactly the cached bytes, and the
// fragments are those a hit serves. The second return reports whether
// the cache satisfied the call.
func EvaluateServed(ctx context.Context, c *resultcache.Cache, name string, structure core.Structure, opts Options) (*Served, bool, error) {
	opts = opts.normalize()
	k, err := evaluateCacheKey(name, structure, opts)
	if err != nil {
		return nil, false, err
	}
	decode := func(b []byte) (any, int64, error) { return serve(name, structure, b) }
	v, hit, err := c.GetOrComputeDecoded(ctx, k, decode, func(cctx context.Context) (any, []byte, error) {
		out, err := EvaluateByNameContext(cctx, name, structure, opts)
		if err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(out)
		if err != nil {
			return nil, nil, err
		}
		out.Profile = nil
		sv := &Served{Outcome: out}
		return sv, b, sv.encode(name, structure)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*Served), hit, nil
}

// EvaluateCachedContext is EvaluateServed's Outcome. A nil cache
// degrades to EvaluateByNameContext (Profile kept).
func EvaluateCachedContext(ctx context.Context, c *resultcache.Cache, name string, structure core.Structure, opts Options) (Outcome, bool, error) {
	if c == nil {
		out, err := EvaluateByNameContext(ctx, name, structure, opts)
		return out, false, err
	}
	sv, hit, err := EvaluateServed(ctx, c, name, structure, opts)
	if err != nil {
		return Outcome{}, false, err
	}
	return sv.Outcome, hit, nil
}

// serve decodes the cached evaluate bytes b of (name, structure) into
// their Served form, and reports its size for the cache's byte bound:
// the fragments' length plus len(b) for the decoded Outcome (which
// holds less heap than its encoding).
func serve(name string, structure core.Structure, b []byte) (*Served, int64, error) {
	sv := new(Served)
	if err := json.Unmarshal(b, &sv.Outcome); err != nil {
		return nil, 0, fmt.Errorf("experiments: decode cached outcome: %w", err)
	}
	if err := sv.encode(name, structure); err != nil {
		return nil, 0, err
	}
	return sv, int64(len(b) + len(sv.Evaluate) + len(sv.Entry)), nil
}

// encode fills the fragments from sv.Outcome. The fragments derive
// from the Outcome's JSON fields alone, so an Outcome that marshals to
// an entry's bytes, as a miss's computed one does, encodes exactly the
// fragments a decoded hit does.
func (sv *Served) encode(name string, structure core.Structure) error {
	run := summarizeRun(sv.Outcome)
	r, err := json.MarshalIndent(run, "  ", "  ")
	if err != nil {
		return err
	}
	const head, tail = "{\n  \"run\": ", ",\n  \"elapsed_ms\": "
	sv.Evaluate = make([]byte, 0, len(head)+len(r)+len(tail))
	sv.Evaluate = append(append(append(sv.Evaluate, head...), r...), tail...)
	sv.Entry, err = json.MarshalIndent(MapEntry{
		Workload:  name,
		Structure: structure.String(),
		Mapping:   sv.Outcome.Mapping,
		Run:       run,
	}, "    ", "  ")
	return err
}
