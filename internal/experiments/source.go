package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/resultcache"
	"ftspm/internal/workloads"
)

// This file defines JobSource, the location-transparent view of one
// campaign that the distributed fabric is built on. A source is derived
// purely from serializable options, so two processes given the same
// options construct the same job IDs, the same config hash, and jobs
// that compute the same results — which is what lets a coordinator ship
// ID lists to remote ftspmd workers, merge the streamed-back raw
// results, and still assemble reports byte-identical to a local run.
// The local campaign paths (RunSweepCampaign, RunSoakCampaign) run on
// the very same source, so there is exactly one job-construction and
// one aggregation code path to keep correct.

// Campaign kinds a JobSource can describe.
const (
	KindSweep = "sweep"
	KindSoak  = "soak"
)

// JobSource is one campaign's deterministic job list: stable IDs, the
// config hash that fingerprints every knob influencing results, and a
// runner per job returning the result as raw JSON (exactly the bytes
// the checkpoint journal records).
type JobSource struct {
	// Kind is KindSweep or KindSoak.
	Kind string
	// Hash fingerprints the campaign configuration; remote workers
	// refuse job lists whose hash does not match their own derivation.
	Hash string
	// IDs lists every job in campaign (dispatch) order.
	IDs []string

	// SweepOpts holds the normalized options of a sweep source.
	SweepOpts *Options
	// SoakOpts and SoakStructures hold the normalized configuration of
	// a soak source.
	SoakOpts       *SoakOptions
	SoakStructures []core.Structure

	runs map[string]func(ctx context.Context) (json.RawMessage, error)
	// soak is a soak source's batch board: handing out a job marks its
	// lane batch wanted there (nil for a sweep).
	soak *soakShared

	// cache state (set by UseCache): the result cache consulted before
	// running a job, and each job's content-addressed key.
	cache *resultcache.Cache
	keys  map[string]resultcache.Key

	// assembly state
	suite      []workloads.Workload
	structures []core.Structure
}

// Job returns the runnable job for one ID. With a cache attached (see
// UseCache), the runner consults it first and stores on miss; the
// journaled bytes are identical either way.
func (s *JobSource) Job(id string) (campaign.Job[json.RawMessage], error) {
	run, ok := s.run(id)
	if !ok {
		return campaign.Job[json.RawMessage]{}, fmt.Errorf("experiments: unknown job ID %q", id)
	}
	if s.cache != nil {
		if k, ok := s.keys[id]; ok {
			run = s.cachedRun(k, run)
		}
	}
	return campaign.Job[json.RawMessage]{ID: id, Run: run}, nil
}

// Jobs returns runnable jobs for the listed IDs, in the given order.
func (s *JobSource) Jobs(ids []string) ([]campaign.Job[json.RawMessage], error) {
	jobs := make([]campaign.Job[json.RawMessage], 0, len(ids))
	for _, id := range ids {
		j, err := s.Job(id)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// JobsUncached returns runnable jobs that bypass any attached cache —
// always a real execution. Integrity audits re-execute through this
// path: an audit that read back a memo instead of recomputing would
// verify nothing.
func (s *JobSource) JobsUncached(ids []string) ([]campaign.Job[json.RawMessage], error) {
	jobs := make([]campaign.Job[json.RawMessage], 0, len(ids))
	for _, id := range ids {
		run, ok := s.run(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown job ID %q", id)
		}
		jobs = append(jobs, campaign.Job[json.RawMessage]{ID: id, Run: run})
	}
	return jobs, nil
}

// run returns the runner of job id, marking the job wanted on a soak
// source's batch board: only the batches of handed-out jobs are
// computed by jobs helping their neighbours.
func (s *JobSource) run(id string) (func(context.Context) (json.RawMessage, error), bool) {
	run, ok := s.runs[id]
	if ok && s.soak != nil {
		s.soak.want(id)
	}
	return run, ok
}

// SetupKey names the once-per-key set-up job id shares with its
// siblings in this source. Jobs with one key that run from one source
// set up once, so the fabric coordinator packs placement chunks by it.
// A sweep job's key is its workload (its set-up group,
// sharedWorkload: one profile and one lockstep simulation of all its
// structures). A soak's costly set-up, the trace and profile in
// soakShared, belongs to the whole source, so every soak job has the
// one key s.Kind and soak chunks fill to the cap: splitting them by
// structure would only add placements, each repeating that set-up. The
// key is read off the ID; an unrecognized ID is its own key.
func (s *JobSource) SetupKey(id string) string {
	rest, ok := strings.CutPrefix(id, s.Kind+"/")
	if !ok {
		return id
	}
	if s.Kind != KindSweep {
		return s.Kind
	}
	i := strings.LastIndexByte(rest, '/') // sweep/<workload>/<structure>
	if i < 0 {
		return id
	}
	return rest[:i]
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
		Kind:       KindSweep,
		Hash:       hash,
		SweepOpts:  &opts,
		runs:       make(map[string]func(context.Context) (json.RawMessage, error), len(suite)*len(structures)),
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
			w, si, sh := w, si, &shares[wi]
			id := sweepJobID(w.Name, s)
			src.IDs = append(src.IDs, id)
			src.runs[id] = func(jctx context.Context) (json.RawMessage, error) {
				out, err := runSweepJob(jctx, w, structures, si, sh, opts)
				if err != nil {
					return nil, err
				}
				return json.Marshal(out)
			}
		}
	}
	return src, nil
}

// AssembleSweep folds a finished (possibly merged-from-remote) raw
// report of this sweep source into the Sweep and campaign status.
func (s *JobSource) AssembleSweep(raw *campaign.Report[json.RawMessage]) (*Sweep, *CampaignStatus, error) {
	if s.Kind != KindSweep {
		return nil, nil, fmt.Errorf("experiments: AssembleSweep on a %s source", s.Kind)
	}
	rep, err := campaign.DecodeReport[Outcome](raw)
	if err != nil {
		return nil, nil, err
	}
	sw := &Sweep{Options: *s.SweepOpts}
	sw.Workloads = make([]string, len(s.suite))
	sw.Outcomes = make([][]Outcome, len(s.suite))
	for wi, w := range s.suite {
		sw.Workloads[wi] = w.Name
		sw.Outcomes[wi] = make([]Outcome, len(s.structures))
		for si, st := range s.structures {
			if r, ok := rep.Results[sweepJobID(w.Name, st)]; ok && r.Status == campaign.StatusDone {
				sw.Outcomes[wi][si] = r.Value
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
	for _, s := range structures {
		if !s.Valid() {
			return nil, fmt.Errorf("experiments: soak: invalid structure %d", s)
		}
	}
	if err := base.Dist.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: soak: %w", err)
	}
	w, err := workloads.ByName(base.Workload)
	if err != nil {
		return nil, err
	}
	hash, err := soakConfigHash(base, structures)
	if err != nil {
		return nil, err
	}
	src := &JobSource{
		Kind:           KindSoak,
		Hash:           hash,
		SoakOpts:       &base,
		SoakStructures: structures,
		runs:           make(map[string]func(context.Context) (json.RawMessage, error), len(structures)*base.Trials),
	}
	sh := newSoakShared(w, base)
	src.soak = sh
	// Structure-major dispatch: with short trials this keeps every
	// structure's shared setup warm early instead of computing them all
	// back-to-back at the end. The batch board lets a job whose lane
	// batch is in flight compute another structure's meanwhile.
	for _, s := range structures {
		ss := sh.structure(s)
		for t := 0; t < base.Trials; t++ {
			t := t
			id := soakJobID(s, t)
			src.IDs = append(src.IDs, id)
			src.runs[id] = func(jctx context.Context) (json.RawMessage, error) {
				res, err := runSoakJobBody(jctx, sh, ss, t)
				if err != nil {
					return nil, err
				}
				return json.Marshal(res)
			}
		}
	}
	return src, nil
}

// AssembleSoak folds a finished (possibly merged-from-remote) raw
// report of this soak source into per-structure reports and the
// campaign status.
func (s *JobSource) AssembleSoak(raw *campaign.Report[json.RawMessage]) ([]*SoakReport, *CampaignStatus, error) {
	if s.Kind != KindSoak {
		return nil, nil, fmt.Errorf("experiments: AssembleSoak on a %s source", s.Kind)
	}
	rep, err := campaign.DecodeReport[soakTrialResult](raw)
	if err != nil {
		return nil, nil, err
	}
	base := *s.SoakOpts
	reports := make([]*SoakReport, len(s.SoakStructures))
	for i, st := range s.SoakStructures {
		trials := make([]soakTrialResult, 0, base.Trials)
		for t := 0; t < base.Trials; t++ {
			if r, ok := rep.Results[soakJobID(st, t)]; ok && r.Status == campaign.StatusDone {
				trials = append(trials, r.Value)
			}
		}
		reports[i] = aggregateSoak(base.Workload, st, base.Trials, trials)
	}
	return reports, statusOf(rep, s.IDs), nil
}
