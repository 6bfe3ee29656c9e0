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
	return evaluateSpec(ctx, w, spec, prof, opts)
}

// evaluateSpec is the Evaluate body for a pre-computed profile and a
// possibly-customized structure spec (used by the ablation studies).
// The simulated trace is regenerated as a stream.
func evaluateSpec(ctx context.Context, w workloads.Workload, spec core.Spec, prof *profile.Profile, opts Options) (Outcome, error) {
	return evaluateSpecStream(ctx, w, spec, prof, w.TraceStream(opts.normalize().Scale), opts)
}

// evaluateSpecStream is the shared evaluation body: everything after
// profiling, consuming the simulated trace from the given stream.
// Profiles are only read here, so one profile may back any number of
// concurrent calls. The simulation loop polls ctx for cancellation (nil
// never cancels).
func evaluateSpecStream(ctx context.Context, w workloads.Workload, spec core.Spec, prof *profile.Profile,
	st trace.Stream, opts Options) (Outcome, error) {
	run, err := mapSpec(w, spec, prof, opts)
	if err != nil {
		return Outcome{}, err
	}
	res, err := run.machine.RunContext(ctx, st)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: run %s/%v: %w", w.Name, spec.Structure, err)
	}
	return run.outcome(res)
}

// specRun is one structure's evaluation between mapping and
// accounting: the MDA placement and the machine built on it, waiting
// for a trace.
type specRun struct {
	w       workloads.Workload
	spec    core.Spec
	prof    *profile.Profile
	mapping core.Mapping
	machine *sim.Machine
}

// mapSpec maps the profiled workload onto the structure and builds the
// machine that will execute it.
func mapSpec(w workloads.Workload, spec core.Spec, prof *profile.Profile, opts Options) (*specRun, error) {
	opts = opts.normalize()
	mapping, err := core.MapBlocks(prof, spec, opts.Thresholds, opts.Priority)
	if err != nil {
		return nil, fmt.Errorf("experiments: map %s/%v: %w", w.Name, spec.Structure, err)
	}
	machine, err := sim.New(w.Program(), spec.SimConfig(mapping.Placement))
	if err != nil {
		return nil, fmt.Errorf("experiments: build %s/%v: %w", w.Name, spec.Structure, err)
	}
	return &specRun{w: w, spec: spec, prof: prof, mapping: mapping, machine: machine}, nil
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
