// Package experiments contains one driver per table and figure of the
// paper's evaluation (see the experiment index in DESIGN.md §4). The
// drivers are shared by cmd/ftspm-bench, the examples, and the
// bench_test.go harness, so every reported number is regenerated through
// exactly one code path.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"ftspm/internal/avf"
	"ftspm/internal/core"
	"ftspm/internal/endurance"
	"ftspm/internal/faults"
	"ftspm/internal/profile"
	"ftspm/internal/program"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// Options parameterize an experiment run.
type Options struct {
	// Scale multiplies the reference trace length (1.0 = full length;
	// the default keeps full-suite sweeps in seconds).
	Scale float64
	// Thresholds are the MDA budgets.
	Thresholds core.Thresholds
	// Priority selects the MDA optimization target.
	Priority core.Priority
}

// DefaultOptions returns the settings used for the recorded results in
// EXPERIMENTS.md.
func DefaultOptions() Options {
	return Options{
		Scale:      0.25,
		Thresholds: core.DefaultThresholds(),
		Priority:   core.PriorityReliability,
	}
}

// normalize fills zero fields with defaults.
func (o Options) normalize() Options {
	def := DefaultOptions()
	if o.Scale <= 0 {
		o.Scale = def.Scale
	}
	if o.Thresholds == (core.Thresholds{}) {
		o.Thresholds = def.Thresholds
	}
	if !o.Priority.Valid() {
		o.Priority = def.Priority
	}
	return o
}

// Outcome is the full evaluation of one workload on one structure.
type Outcome struct {
	// Workload and Structure identify the run.
	Workload  string
	Structure core.Structure
	// Spec is the structure geometry.
	Spec core.Spec
	// Profile is the off-line profiling result. It is excluded from
	// JSON so checkpointed sweep records stay compact; consumers of
	// serialized outcomes (figures, summaries) never read it.
	Profile *profile.Profile `json:"-"`
	// Mapping is the MDA output.
	Mapping core.Mapping
	// Sim is the execution accounting.
	Sim sim.Result
	// AVF is the reliability report (per-block for the hybrid, uniform
	// for the single-region baselines, as in the paper — see avf docs).
	AVF avf.Report
	// STTWriteRate is the hottest STT-RAM cell's write rate in writes
	// per second (0 when the structure has no STT-RAM or no writes).
	STTWriteRate float64
}

// ErrUnknownWorkload re-exports workload resolution failures.
var ErrUnknownWorkload = workloads.ErrUnknownWorkload

// Evaluate runs the full pipeline — profile, MDA, simulate, AVF,
// endurance — for one workload on one structure. Both the profiler and
// the simulator consume streaming trace generators, so a single run
// never materializes the trace.
func Evaluate(w workloads.Workload, structure core.Structure, opts Options) (Outcome, error) {
	return EvaluateContext(context.Background(), w, structure, opts)
}

// EvaluateContext is Evaluate with cooperative cancellation: both the
// profiling and the simulation loops poll ctx every few thousand trace
// events, so a request deadline or client cancellation stops the work
// promptly instead of merely abandoning its result (errors.Is on the
// returned error sees the context error).
func EvaluateContext(ctx context.Context, w workloads.Workload, structure core.Structure, opts Options) (Outcome, error) {
	opts = opts.normalize()
	spec, err := core.NewSpec(structure)
	if err != nil {
		return Outcome{}, err
	}
	prof, err := profile.RunContext(ctx, w.Program(), w.TraceStream(opts.Scale))
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: profile %s: %w", w.Name, err)
	}
	return evaluateSolo(ctx, w, variant{spec: spec, opts: opts}, prof, w.TraceStream(opts.Scale))
}

// variant is one machine of an evaluation group: a structure geometry
// mapped under its own MDA budgets and priority (opts.Scale is unused:
// the group fixes the trace). A non-nil injection lands live particle
// strikes on the machine as it runs.
type variant struct {
	spec      core.Spec
	opts      Options
	injection *sim.InjectionConfig
}

// evaluateGroup is the evaluation routine of every driver that
// evaluates one workload more than once. It streams the workload's
// trace at scale twice and never holds it: once into the profiler,
// against prog (nil: the workload's own program), then, after every
// variant is mapped, once into all the variants' machines in lockstep.
// outs[i] and errs[i] are variant i's; a profiling failure fails the
// whole group with err and no outcomes. It polls no context: a group
// shared by several jobs must not fail because one of them was
// cancelled.
func evaluateGroup(w workloads.Workload, prog *program.Program, scale float64, variants []variant) (
	prof *profile.Profile, outs []Outcome, errs []error, err error) {
	if prog == nil {
		prog = w.Program()
	}
	prof, err = profile.Run(prog, w.TraceStream(scale))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: profile %s: %w", w.Name, err)
	}
	outs = make([]Outcome, len(variants))
	errs = make([]error, len(variants))
	var runs []*specRun
	var at []int // runs[k] is variant at[k]
	var machines []*sim.Machine
	for i, v := range variants {
		run, err := mapSpec(w, v, prof)
		if err != nil {
			errs[i] = err
			continue
		}
		runs = append(runs, run)
		at = append(at, i)
		machines = append(machines, run.machine)
	}
	results, runErrs := sim.RunLockstep(w.TraceStream(scale), machines)
	for k, run := range runs {
		i := at[k]
		if runErrs[k] != nil {
			errs[i] = fmt.Errorf("experiments: run %s/%v: %w", w.Name, run.spec.Structure, runErrs[k])
			continue
		}
		outs[i], errs[i] = run.outcome(results[k])
	}
	return prof, outs, errs, nil
}

// evaluateAll evaluates a group every variant of which the caller
// needs: it fails with the first error, in variant order.
func evaluateAll(w workloads.Workload, prog *program.Program, scale float64, variants []variant) ([]Outcome, error) {
	_, outs, errs, err := evaluateGroup(w, prog, scale, variants)
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// evaluateSolo maps one variant onto a computed profile and runs its
// machine alone on the stream st, polling ctx for cancellation (nil
// never cancels). Profiles are only read here, so one profile may back
// any number of concurrent calls.
func evaluateSolo(ctx context.Context, w workloads.Workload, v variant, prof *profile.Profile, st trace.Stream) (Outcome, error) {
	run, err := mapSpec(w, v, prof)
	if err != nil {
		return Outcome{}, err
	}
	res, err := run.machine.RunContext(ctx, st)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: run %s/%v: %w", w.Name, v.spec.Structure, err)
	}
	return run.outcome(res)
}

// specRun is one variant's evaluation between mapping and accounting:
// the MDA placement and the machine built on it, waiting for a trace.
type specRun struct {
	w       workloads.Workload
	spec    core.Spec
	prof    *profile.Profile
	mapping core.Mapping
	machine *sim.Machine
}

// mapSpec maps the profiled program onto the variant's structure and
// builds the machine that will execute it.
func mapSpec(w workloads.Workload, v variant, prof *profile.Profile) (*specRun, error) {
	opts := v.opts.normalize()
	mapping, err := core.MapBlocks(prof, v.spec, opts.Thresholds, opts.Priority)
	if err != nil {
		return nil, fmt.Errorf("experiments: map %s/%v: %w", w.Name, v.spec.Structure, err)
	}
	cfg := v.spec.SimConfig(mapping.Placement)
	cfg.Injection = v.injection
	machine, err := sim.New(prof.Program(), cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: build %s/%v: %w", w.Name, v.spec.Structure, err)
	}
	return &specRun{w: w, spec: v.spec, prof: prof, mapping: mapping, machine: machine}, nil
}

// outcome completes the evaluation from the machine's execution
// accounting: reliability (AVF) and endurance.
func (r *specRun) outcome(res sim.Result) (Outcome, error) {
	w, spec, prof, structure := r.w, r.spec, r.prof, r.spec.Structure
	mode := avf.ModeUniform
	if len(spec.DataKinds) > 1 {
		mode = avf.ModePerBlock
	}
	// Occupancy is normalized over the data-SPM surface: the mapping
	// algorithm distributes data blocks over it, and in the structures
	// with STT-RAM I-SPMs the instruction side is immune anyway.
	rep, err := avf.Compute(prof, r.mapping.Placement, faults.Dist40nm, spec.DSPMBytes(), mode)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: avf %s/%v: %w", w.Name, structure, err)
	}

	var rate float64
	if _, hasSTT := r.machine.DataSPM().RegionByKind(spm.RegionSTT); hasSTT {
		dataRate, err := endurance.MaxCellWriteRate(r.machine.DataSPM(), res.Cycles, spm.RegionSTT)
		if err != nil && !errors.Is(err, endurance.ErrNoExecution) {
			return Outcome{}, err
		}
		rate = dataRate
	}

	return Outcome{
		Workload:     w.Name,
		Structure:    structure,
		Spec:         spec,
		Profile:      prof,
		Mapping:      r.mapping,
		Sim:          res,
		AVF:          rep,
		STTWriteRate: rate,
	}, nil
}

// EvaluateByName resolves the workload by name and evaluates it.
func EvaluateByName(name string, structure core.Structure, opts Options) (Outcome, error) {
	return EvaluateByNameContext(context.Background(), name, structure, opts)
}

// EvaluateByNameContext resolves the workload by name and evaluates it
// under ctx (see EvaluateContext).
func EvaluateByNameContext(ctx context.Context, name string, structure core.Structure, opts Options) (Outcome, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return Outcome{}, err
	}
	return EvaluateContext(ctx, w, structure, opts)
}
