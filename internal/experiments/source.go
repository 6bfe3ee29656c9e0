package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/resultcache"
	"ftspm/internal/workloads"
)

// This file defines JobSource, the location-transparent view of one
// campaign that the distributed fabric is built on. A source is derived
// purely from its CampaignSpec, a serializable description, so two
// processes given the same spec construct the same job IDs, the same
// config hash, and jobs that compute the same results — which is what
// lets a coordinator ship the spec and ID lists to remote ftspmd
// workers, merge the streamed-back raw results, and still assemble
// reports byte-identical to a local run. The in-process executor
// (CampaignConfig.RunLocal) runs the very same source, so there is
// exactly one job-construction and one aggregation code path to keep
// correct.

// Campaign kinds a CampaignSpec can describe.
const (
	KindSweep = "sweep"
	KindSoak  = "soak"
)

// CampaignSpec is the serializable description of one campaign: its
// kind and that kind's normalized options. The fabric's wire request
// embeds it, so its JSON is part of the worker protocol.
type CampaignSpec struct {
	// Kind selects the campaign family: KindSweep or KindSoak.
	Kind string `json:"kind"`
	// Sweep holds the sweep options (kind "sweep").
	Sweep *Options `json:"sweep,omitempty"`
	// Soak holds the soak base options, and Structures the soaked
	// structures by their canonical core.Structure.String() names
	// (kind "soak").
	Soak       *SoakOptions `json:"soak,omitempty"`
	Structures []string     `json:"structures,omitempty"`
}

// Source builds the campaign's job source. The fabric coordinator
// builds the job list it shards from it, and each worker rebuilds —
// and hash-checks — the same source from the spec it was sent.
func (c CampaignSpec) Source() (*JobSource, error) {
	switch c.Kind {
	case KindSweep:
		if c.Sweep == nil {
			return nil, fmt.Errorf("experiments: sweep campaign without sweep options")
		}
		return SweepSource(*c.Sweep)
	case KindSoak:
		if c.Soak == nil {
			return nil, fmt.Errorf("experiments: soak campaign without soak options")
		}
		structures := make([]core.Structure, len(c.Structures))
		for i, name := range c.Structures {
			s, err := core.ParseStructure(name)
			if err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			structures[i] = s
		}
		return SoakSource(*c.Soak, structures)
	default:
		return nil, fmt.Errorf("experiments: unknown campaign kind %q", c.Kind)
	}
}

// JobSource is one campaign's deterministic job list: stable IDs, the
// config hash that fingerprints every knob influencing results, and a
// runner per job returning the result as raw JSON (exactly the bytes
// the checkpoint journal records).
type JobSource struct {
	// Spec describes the campaign, its options normalized.
	Spec CampaignSpec
	// Hash fingerprints the campaign configuration; remote workers
	// refuse job lists whose hash does not match their own derivation.
	Hash string
	// IDs lists every job in campaign (dispatch) order.
	IDs []string

	// jobs is the job table, one entry per ID.
	jobs map[string]*sourceJob
	// soak is a soak source's batch board (nil for a sweep). Its jobs'
	// hand-out hooks hold it too; tests set its batch hook here.
	soak *soakShared

	// assembly state
	suite      []workloads.Workload
	structures []core.Structure
}

// sourceJob is one entry of a source's job table.
type sourceJob struct {
	run func(ctx context.Context) (json.RawMessage, error)
	// setup is the job's set-up key (see SetupKey).
	setup string
	// cacheKey derives the job's result-cache key, only for a job that
	// is handed out or looked up with a cache.
	cacheKey func() (resultcache.Key, error)
	// handOut, when non-nil, runs as the job is handed out: a soak job
	// marks its lane batch wanted on the batch board, so only the
	// batches of handed-out jobs are computed by jobs helping their
	// neighbours.
	handOut func()
}

// add appends job id to the source's dispatch order and job table.
func (s *JobSource) add(id string, j sourceJob) {
	s.IDs = append(s.IDs, id)
	s.jobs[id] = &j
}

// Jobs hands out runnable jobs for the listed IDs, in the given order.
// With a non-nil cache each runner consults it first and stores on
// miss; the journaled bytes are identical either way. A nil cache
// always executes: integrity audits re-execute that way, since an
// audit that read back a memo instead of recomputing would verify
// nothing.
func (s *JobSource) Jobs(ids []string, c *resultcache.Cache) ([]campaign.Job, error) {
	jobs := make([]campaign.Job, 0, len(ids))
	for _, id := range ids {
		j, ok := s.jobs[id]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown job ID %q", id)
		}
		run := j.run
		if c != nil {
			k, err := j.cacheKey()
			if err != nil {
				return nil, err
			}
			run = cachedRun(c, k, run)
		}
		if j.handOut != nil {
			j.handOut()
		}
		jobs = append(jobs, campaign.Job{ID: id, Run: run})
	}
	return jobs, nil
}

// SetupKey names the once-per-key set-up job id shares with its
// siblings in this source. Jobs with one key that run from one source
// set up once, so the fabric coordinator packs placement chunks by it.
// A sweep job's key is its workload (its set-up group,
// sharedWorkload: one profile and one lockstep simulation of all its
// structures). A soak's costly set-up, the trace and profile in
// soakShared, belongs to the whole source, so every soak job has the
// one key KindSoak and soak chunks fill to the cap: splitting them by
// structure would only add placements, each repeating that set-up. An
// ID not in the source is its own key.
func (s *JobSource) SetupKey(id string) string {
	if j, ok := s.jobs[id]; ok {
		return j.setup
	}
	return id
}

// setups counts once-per-key set-ups (a sweep workload's group, a
// soak's trace and profile, a soak structure's mapping), process-wide.
var setups atomic.Uint64

// SetupCount returns the process-wide set-up count.
func SetupCount() uint64 { return setups.Load() }

// SweepSource builds the full-suite sweep campaign as a job source.
func SweepSource(opts Options) (*JobSource, error) {
	opts = opts.normalize()
	suite := workloads.Suite()
	structures := core.Structures()
	hash, err := sweepConfigHash(opts, suite, structures)
	if err != nil {
		return nil, err
	}
	src := &JobSource{
		Spec:       CampaignSpec{Kind: KindSweep, Sweep: &opts},
		Hash:       hash,
		jobs:       make(map[string]*sourceJob, len(suite)*len(structures)),
		suite:      suite,
		structures: structures,
	}
	shares := make([]sharedWorkload, len(suite))
	// Structure-major job order spreads the once-per-workload set-ups
	// over distinct workers instead of queueing a group's siblings behind
	// it. The fabric coordinator regroups the IDs by SetupKey, so each
	// placement chunk holds whole workloads and sets each up once.
	for si, s := range structures {
		for wi, w := range suite {
			w, si, s, sh := w, si, s, &shares[wi]
			src.add(sweepJobID(w.Name, s), sourceJob{
				run: func(jctx context.Context) (json.RawMessage, error) {
					out, err := runSweepJob(jctx, w, structures, si, sh, opts)
					if err != nil {
						return nil, err
					}
					return json.Marshal(out)
				},
				setup:    w.Name,
				cacheKey: func() (resultcache.Key, error) { return evaluateCacheKey(w.Name, s, opts) },
			})
		}
	}
	return src, nil
}

// AssembleSweep folds a finished (possibly merged-from-remote) raw
// report of this sweep source into the Sweep and campaign status.
func (s *JobSource) AssembleSweep(rep *campaign.Report) (*Sweep, *CampaignStatus, error) {
	if s.Spec.Kind != KindSweep {
		return nil, nil, fmt.Errorf("experiments: AssembleSweep on a %s source", s.Spec.Kind)
	}
	sw := &Sweep{Options: *s.Spec.Sweep}
	sw.Workloads = make([]string, len(s.suite))
	sw.Outcomes = make([][]Outcome, len(s.suite))
	for wi, w := range s.suite {
		sw.Workloads[wi] = w.Name
		sw.Outcomes[wi] = make([]Outcome, len(s.structures))
		for si, st := range s.structures {
			if _, err := decodeDone(rep, sweepJobID(w.Name, st), &sw.Outcomes[wi][si]); err != nil {
				return nil, nil, err
			}
		}
	}
	return sw, statusOf(rep, s.IDs), nil
}

// SoakSource builds a soak campaign over the listed structures as a job
// source. An empty structure list soaks base.Structure alone.
func SoakSource(base SoakOptions, structures []core.Structure) (*JobSource, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	base = base.normalize()
	if len(structures) == 0 {
		structures = []core.Structure{base.Structure}
	}
	names := make([]string, len(structures))
	for i, s := range structures {
		if !s.Valid() {
			return nil, fmt.Errorf("experiments: soak: invalid structure %d", s)
		}
		names[i] = s.String()
	}
	if err := base.Dist.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: soak: %w", err)
	}
	w, err := workloads.ByName(base.Workload)
	if err != nil {
		return nil, err
	}
	hash, err := soakConfigHash(base, names)
	if err != nil {
		return nil, err
	}
	sh := newSoakShared(w, base)
	src := &JobSource{
		Spec:       CampaignSpec{Kind: KindSoak, Soak: &base, Structures: names},
		Hash:       hash,
		jobs:       make(map[string]*sourceJob, len(structures)*base.Trials),
		soak:       sh,
		structures: structures,
	}
	// Structure-major dispatch: with short trials this keeps every
	// structure's shared setup warm early instead of computing them all
	// back-to-back at the end. The batch board lets a job whose lane
	// batch is in flight compute another structure's meanwhile.
	for _, s := range structures {
		ss := sh.structure(s)
		for t := 0; t < base.Trials; t++ {
			t := t
			src.add(soakJobID(s, t), sourceJob{
				run: func(jctx context.Context) (json.RawMessage, error) {
					res, err := runSoakJobBody(jctx, sh, ss, t)
					if err != nil {
						return nil, err
					}
					return json.Marshal(res)
				},
				setup:    KindSoak,
				cacheKey: func() (resultcache.Key, error) { return soakCacheKey(base, ss.structure, t) },
				handOut:  func() { sh.want(ss, t) },
			})
		}
	}
	return src, nil
}

// AssembleSoak folds a finished (possibly merged-from-remote) raw
// report of this soak source into per-structure reports and the
// campaign status.
func (s *JobSource) AssembleSoak(rep *campaign.Report) ([]*SoakReport, *CampaignStatus, error) {
	if s.Spec.Kind != KindSoak {
		return nil, nil, fmt.Errorf("experiments: AssembleSoak on a %s source", s.Spec.Kind)
	}
	base := *s.Spec.Soak
	reports := make([]*SoakReport, len(s.structures))
	for i, st := range s.structures {
		trials := make([]soakTrialResult, 0, base.Trials)
		for t := 0; t < base.Trials; t++ {
			var tr soakTrialResult
			done, err := decodeDone(rep, soakJobID(st, t), &tr)
			if err != nil {
				return nil, nil, err
			}
			if done {
				trials = append(trials, tr)
			}
		}
		reports[i] = aggregateSoak(base.Workload, st, base.Trials, trials)
	}
	return reports, statusOf(rep, s.IDs), nil
}

// decodeDone decodes the value of job id into v if the job is done in
// rep, and reports whether it is.
func decodeDone(rep *campaign.Report, id string, v any) (bool, error) {
	r, ok := rep.Results[id]
	if !ok || r.Status != campaign.StatusDone {
		return false, nil
	}
	if err := json.Unmarshal(r.Value, v); err != nil {
		return false, fmt.Errorf("experiments: decode result %s: %w", id, err)
	}
	return true, nil
}
