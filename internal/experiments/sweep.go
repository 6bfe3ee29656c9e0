package experiments

import (
	"context"
	"fmt"
	"sync"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/profile"
	"ftspm/internal/workloads"
)

// Sweep evaluates the full MiBench-substitute suite on all three
// structures. Outcomes are indexed [workload][structure in
// core.Structures() order].
type Sweep struct {
	// Workloads lists the evaluated workload names in order.
	Workloads []string
	// Outcomes holds one row per workload, one column per structure in
	// core.Structures() order (pure SRAM, pure STT, FTSPM). In a
	// salvaged (incomplete or partially failed) sweep, missing cells
	// are zero-valued; Has reports presence.
	Outcomes [][]Outcome
	// Options records the sweep settings.
	Options Options
}

// sharedWorkload is one sweep workload's set-up group: the jobs of all
// its structures. The first of them to run sets the group up (see
// setUp) and every job then takes its own outcome from it, once. A
// second run of a job from the same source, an integrity audit or a
// retry, never reads back a handed-out outcome: it simulates again on
// its own, from a fresh trace stream and the group's profile.
type sharedWorkload struct {
	once sync.Once
	prof *profile.Profile
	err  error

	mu   sync.Mutex
	outs []groupOutcome // one per structure, in the source's order
}

// groupOutcome is one structure's result from its group's set-up.
type groupOutcome struct {
	out   Outcome
	err   error
	taken bool
}

// setUp evaluates the workload's structures as one group
// (evaluateGroup): its trace is streamed into the profiler once and
// into all the structures' machines in lockstep once. It runs detached
// from any job's context, so one job's deadline can never poison the
// group for its siblings.
func (sh *sharedWorkload) setUp(w workloads.Workload, structures []core.Structure, opts Options) {
	outs := make([]groupOutcome, len(structures))
	var variants []variant
	var at []int // variants[k] is structure at[k]
	for i, s := range structures {
		spec, err := core.NewSpec(s)
		if err != nil {
			outs[i].err = fmt.Errorf("experiments: sweep %s/%v: %w", w.Name, s, err)
			continue
		}
		variants = append(variants, variant{spec: spec, opts: opts})
		at = append(at, i)
	}
	prof, results, errs, err := evaluateGroup(w, nil, opts.Scale, variants)
	if err != nil {
		sh.err = err
		return
	}
	sh.prof = prof
	for k, i := range at {
		err := errs[k]
		if err != nil {
			err = fmt.Errorf("experiments: sweep %s/%v: %w", w.Name, structures[i], err)
		}
		outs[i] = groupOutcome{out: results[k], err: err}
	}
	sh.outs = outs
}

// take hands out structure i's set-up outcome on the first call and
// reports false on every later one (or when the set-up did not get as
// far as simulating).
func (sh *sharedWorkload) take(i int) (groupOutcome, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.outs == nil || sh.outs[i].taken {
		return groupOutcome{}, false
	}
	g := sh.outs[i]
	// The job owns the outcome now; nothing is left to read back.
	sh.outs[i] = groupOutcome{taken: true}
	return g, true
}

// sweepJobHook, when non-nil, runs at the start of every sweep job —
// the test seam for injecting a per-job panic and proving it stays
// isolated to that job.
var sweepJobHook func(workload string, s core.Structure)

// sweepJobID is the deterministic job identity inside a sweep
// campaign; the scale/threshold/priority configuration is carried by
// the campaign's config hash, not the ID.
func sweepJobID(workload string, s core.Structure) string {
	return "sweep/" + workload + "/" + s.String()
}

// sweepConfigHash fingerprints everything that determines a sweep
// job's result, so a checkpoint can never be silently reused across
// differently-configured campaigns.
func sweepConfigHash(opts Options, suite []workloads.Workload, structures []core.Structure) (string, error) {
	names := make([]string, len(suite))
	for i, w := range suite {
		names[i] = w.Name
	}
	structs := make([]string, len(structures))
	for i, s := range structures {
		structs[i] = s.String()
	}
	return campaign.HashJSON(struct {
		Kind       string
		Options    Options
		Workloads  []string
		Structures []string
	}{Kind: "sweep", Options: opts, Workloads: names, Structures: structs})
}

// RunSweepCampaign is RunSweepOn on the in-process runner cc.RunLocal.
// It remains only because the benchmark harness in perfbench/ imports
// it.
func RunSweepCampaign(ctx context.Context, opts Options, cc CampaignConfig) (*Sweep, *CampaignStatus, error) {
	return RunSweepOn(ctx, opts, cc.RunLocal)
}

// RunSweepOn evaluates the full suite on all structures as a crash-safe
// campaign whose jobs run on exec: CampaignConfig.RunLocal in process,
// or a fabric.Config's Run across ftspmd workers. Both go through the
// same job source, so their reports are byte-identical.
//
// The profile and trace of each (workload, scale) depend only on the
// seeded generator, never on the structure, so each workload is one
// set-up group (sharedWorkload): its trace is generated twice, once for
// the profiler and once for all its structures' machines in lockstep,
// and never held whole. The groups fan out over the bounded worker
// pool. Results are deterministic regardless of
// scheduling (every generator is seeded, each structure owns its
// machine), and results restored from a checkpoint round-trip
// bit-exactly through JSON — an interrupted-then-resumed sweep reports
// byte-identically to an uninterrupted one.
//
// A job that panics or errors fails alone (recorded in the status with
// its stack) while the rest of the campaign completes. When ctx is
// cancelled, in-flight jobs finish and are journaled, the rest are
// reported pending, and the error wraps campaign.ErrIncomplete — the
// returned Sweep then holds every salvaged outcome.
func RunSweepOn(ctx context.Context, opts Options, exec Executor) (*Sweep, *CampaignStatus, error) {
	src, err := SweepSource(opts)
	if err != nil {
		return nil, nil, err
	}
	raw, runErr := exec(ctx, src)
	if raw == nil {
		return nil, nil, runErr
	}
	sw, status, err := src.AssembleSweep(raw)
	if err != nil {
		return nil, nil, err
	}
	return sw, status, runErr
}

// runSweepJob is one (workload, structure) evaluation: set up the
// workload's group if no sibling has, and take this structure's
// outcome from it. The job context (carrying the per-job deadline)
// bounds only a solo re-run; the group set-up runs detached.
func runSweepJob(ctx context.Context, w workloads.Workload, structures []core.Structure, si int, sh *sharedWorkload, opts Options) (Outcome, error) {
	s := structures[si]
	if sweepJobHook != nil {
		sweepJobHook(w.Name, s)
	}
	sh.once.Do(func() {
		setups.Add(1)
		sh.setUp(w, structures, opts)
	})
	if sh.err != nil {
		return Outcome{}, sh.err
	}
	if sh.prof == nil {
		// The set-up panicked out of the Once: the panic was isolated to
		// the job that ran it, but the group is poisoned.
		return Outcome{}, fmt.Errorf("experiments: profile %s: unavailable (profiling panicked)", w.Name)
	}
	if g, ok := sh.take(si); ok {
		return g.out, g.err
	}
	spec, err := core.NewSpec(s)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: sweep %s/%v: %w", w.Name, s, err)
	}
	out, err := evaluateSolo(ctx, w, variant{spec: spec, opts: opts}, sh.prof, w.TraceStream(opts.Scale))
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: sweep %s/%v: %w", w.Name, s, err)
	}
	return out, nil
}

// Has reports whether the sweep holds an outcome for the pair (always
// true for a complete sweep; false for cells lost to a drain or a
// failed job in a salvaged sweep).
func (s *Sweep) Has(workload string, structure core.Structure) bool {
	_, err := s.Get(workload, structure)
	return err == nil
}

// Get returns the outcome for a workload/structure pair.
func (s *Sweep) Get(workload string, structure core.Structure) (Outcome, error) {
	for i, name := range s.Workloads {
		if name != workload {
			continue
		}
		for _, out := range s.Outcomes[i] {
			if out.Structure == structure && out.Workload == workload {
				return out, nil
			}
		}
	}
	return Outcome{}, fmt.Errorf("experiments: no outcome for %s/%v", workload, structure)
}
