package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/profile"
	"ftspm/internal/trace"
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

// RunSweep evaluates the suite. See RunSweepCampaign.
func RunSweep(opts Options) (*Sweep, error) {
	return RunSweepContext(context.Background(), opts)
}

// RunSweepContext evaluates the suite in-memory (no checkpoint). Any
// permanently-failed job fails the sweep with that job's error; a
// cancelled context returns the context error. Callers needing partial
// results, resume, retries, or deadlines use RunSweepCampaign.
func RunSweepContext(ctx context.Context, opts Options) (*Sweep, error) {
	sw, status, err := RunSweepCampaign(ctx, opts, CampaignConfig{})
	if err != nil {
		return nil, err
	}
	if f := status.FirstFailure(); f != nil {
		return nil, f
	}
	return sw, nil
}

// sharedWorkload is the once-per-workload state of a sweep: the
// materialized trace and its profile, computed by whichever worker
// reaches the workload first and read-shared by the structure runs.
// remaining counts the structure runs still owing a replay; the last
// one drops the trace so at most a worker-pool's worth of traces is
// ever live. (On a resumed sweep, structure runs already journaled
// never replay, so a partially-resumed workload's trace is retained
// until the sweep returns — bounded by the suite size.)
type sharedWorkload struct {
	once      sync.Once
	events    []trace.Event
	prof      *profile.Profile
	err       error
	remaining atomic.Int32
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

// RunSweepCampaign evaluates the full suite on all structures as a
// crash-safe campaign. The profile and trace of each (workload, scale)
// depend only on the seeded generator, never on the structure, so each
// workload is profiled exactly once and its trace is materialized
// exactly once; the (workload, structure) simulations fan out over the
// bounded worker pool, replaying the shared trace. Results are
// deterministic regardless of scheduling (every generator is seeded,
// shared state is read-only, each run owns its machine), and results
// restored from a checkpoint round-trip bit-exactly through JSON — an
// interrupted-then-resumed sweep reports byte-identically to an
// uninterrupted one.
//
// A job that panics or errors fails alone (recorded in the status with
// its stack) while the rest of the campaign completes. When ctx is
// cancelled, in-flight jobs finish and are journaled, the rest are
// reported pending, and the error wraps campaign.ErrIncomplete — the
// returned Sweep then holds every salvaged outcome.
func RunSweepCampaign(ctx context.Context, opts Options, cc CampaignConfig) (*Sweep, *CampaignStatus, error) {
	return RunSweepOn(ctx, opts, cc.RunLocal)
}

// RunSweepOn runs the sweep's job source on exec and assembles the
// sweep; the local runner and the distributed fabric both go through
// it, so their reports are byte-identical.
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

// runSweepJob is one (workload, structure) evaluation: share the
// workload's profile and materialized trace, then simulate. The job
// context (carrying the per-job deadline) cancels only this job's
// simulation; the once-per-workload shared profiling runs detached so
// one job's deadline can never poison the share for its siblings.
func runSweepJob(ctx context.Context, w workloads.Workload, s core.Structure, sh *sharedWorkload, opts Options) (Outcome, error) {
	if sweepJobHook != nil {
		sweepJobHook(w.Name, s)
	}
	sh.once.Do(func() {
		setups.Add(1)
		sh.events = w.TraceEvents(opts.Scale)
		sh.prof, sh.err = profile.Run(w.Program(), trace.Replay(sh.events))
		if sh.err != nil {
			sh.err = fmt.Errorf("experiments: profile %s: %w", w.Name, sh.err)
		}
	})
	if sh.err != nil {
		return Outcome{}, sh.err
	}
	if sh.prof == nil {
		// The profiling attempt panicked out of the Once: the panic was
		// isolated to the job that ran it, but the share is poisoned.
		return Outcome{}, fmt.Errorf("experiments: profile %s: unavailable (profiling panicked)", w.Name)
	}
	spec, err := core.NewSpec(s)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: sweep %s/%v: %w", w.Name, s, err)
	}
	out, err := evaluateSpecStream(ctx, w, spec, sh.prof, trace.Replay(sh.events), opts)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: sweep %s/%v: %w", w.Name, s, err)
	}
	if sh.remaining.Add(-1) == 0 {
		sh.events = nil // last replay done; release the trace
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
