package workloads

import (
	"errors"
	"fmt"
	"sort"

	"ftspm/internal/program"
	"ftspm/internal/trace"
)

// Workload bundles a program image with its deterministic trace
// generator.
type Workload struct {
	// Name is the suite-unique identifier (MiBench-style lowercase).
	Name string
	// Description says which program the generator stands in for and
	// what its access character is.
	Description string

	spec spec
	prog *program.Program
}

// Program returns the workload's program image. The image is shared;
// callers must not mutate it (Program has no mutating methods besides
// AddBlock, which callers must not invoke).
func (w Workload) Program() *program.Program { return w.prog }

// Trace materializes the workload's access trace at the given scale
// (1.0 = reference length; experiments use smaller scales for quick
// runs). The trace is deterministic per (workload, scale).
func (w Workload) Trace(scale float64) *trace.SliceStream {
	return trace.Replay(w.spec.generate(w.prog, scale))
}

// TraceStream returns the workload's trace as a streaming generator:
// events are produced on demand, one activation at a time, so the
// consumer never holds the materialized trace. The stream emits the
// byte-identical event sequence of Trace (the slice path is defined as
// a drain of this stream); rebuilding the stream replays it.
func (w Workload) TraceStream(scale float64) trace.Stream {
	return w.spec.stream(w.prog, scale)
}

// TraceEvents materializes the trace as a raw event slice. The caller
// owns the slice; sharing it read-only across trace.Replay streams is
// how the soak engine amortizes generation over its trials.
func (w Workload) TraceEvents(scale float64) []trace.Event {
	return w.spec.generate(w.prog, scale)
}

// ErrUnknownWorkload is returned by ByName for names not in the suite.
var ErrUnknownWorkload = errors.New("workloads: unknown workload")

// CaseStudyName is the name of the Section IV motivational-example
// workload.
const CaseStudyName = "casestudy"

// CaseStudy returns the Section IV case-study program: two multiply
// functions, two add functions, and a quick-sort over four ~2 KB arrays
// (Algorithm 2), with the block set of Table I — a Main too large for the
// 16 KB I-SPM, hot Mul/Add kernels, two read-write arrays (Array1/3), two
// read-mostly arrays (Array2/4), and a write-hot short-lived stack.
func CaseStudy() Workload {
	return build(caseStudySpec())
}

func caseStudySpec() spec {
	return spec{
		name: CaseStudyName,
		desc: "Section IV motivational example: mul/add/qsort over four arrays",
		blocks: []blockSpec{
			{"Main", program.CodeBlock, 20 * 1024}, // exceeds the 16 KB I-SPM, stays unmapped
			{"Mul", program.CodeBlock, 2 * 1024},
			{"Add", program.CodeBlock, 1 * 1024},
			{"Array1", program.DataBlock, 2 * 1024},
			{"Array2", program.DataBlock, 2 * 1024},
			{"Array3", program.DataBlock, 2 * 1024},
			{"Array4", program.DataBlock, 2 * 1024},
			{"Stack", program.StackBlock, 512},
		},
		stack:       "Stack",
		activations: 2000,
		seed:        1301,
		segments: []segment{
			{ // initialization of the read-write arrays (Algorithm 2 line
				// 1; the one-off loader copies into Array2/4 are excluded
				// from profiling, as Table I's footnote explains)
				share: 0.04,
				patterns: []pattern{
					{block: "Array1", weight: 1, readFrac: 0.02, runLen: 150, burstWords: 4, sequential: true},
					{block: "Array3", weight: 1, readFrac: 0.02, runLen: 150, burstWords: 4, sequential: true},
				},
				code:       []codeUse{{block: "Main", weight: 1, frameBytes: 0}},
				think:      1,
				fetchEvery: 4, fetchWords: 8,
			},
			{ // mul/add loop nest (Algorithm 2 lines 3-6). Each block
				// reference streams through a long stretch of the array —
				// Table I reports ~10,800 reads per reference — so the
				// on-line transfers amortize over long activations.
				share: 0.74,
				patterns: []pattern{
					{block: "Array1", weight: 0.26, readFrac: 0.66, runLen: 500, burstWords: 1, sequential: true},
					{block: "Array2", weight: 0.15, readFrac: 0.9995, runLen: 500, burstWords: 1, sequential: true},
					{block: "Array3", weight: 0.34, readFrac: 0.66, runLen: 500, burstWords: 1, sequential: true},
					{block: "Array4", weight: 0.15, readFrac: 0.9995, runLen: 500, burstWords: 1, sequential: true},
				},
				code: []codeUse{
					{block: "Mul", weight: 0.85, frameBytes: 72, stackTouch: 9},
					{block: "Add", weight: 0.15, frameBytes: 72, stackTouch: 9},
				},
				callEvery:  1,
				think:      1,
				fetchEvery: 1, fetchWords: 16,
			},
			{ // qsort(Array1) (Algorithm 2 line 7)
				share: 0.20,
				patterns: []pattern{
					{block: "Array1", weight: 0.9, readFrac: 0.60, runLen: 300, burstWords: 1},
					{block: "Array2", weight: 0.1, readFrac: 1.0, runLen: 120, burstWords: 1},
				},
				code:       []codeUse{{block: "Main", weight: 1, frameBytes: 120, stackTouch: 10}},
				callEvery:  1,
				think:      1,
				fetchEvery: 2, fetchWords: 12,
			},
		},
	}
}

// Suite returns the 12-program MiBench-substitute suite used by the
// Figs. 4-8 sweeps, in canonical order.
func Suite() []Workload {
	specs := suiteSpecs()
	out := make([]Workload, 0, len(specs))
	for _, s := range specs {
		out = append(out, build(s))
	}
	return out
}

// Names returns the canonical suite workload names in order.
func Names() []string {
	specs := suiteSpecs()
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// ByName resolves a suite workload or the case study by name.
func ByName(name string) (Workload, error) {
	if name == CaseStudyName {
		return CaseStudy(), nil
	}
	for _, s := range suiteSpecs() {
		if s.name == name {
			return build(s), nil
		}
	}
	for _, s := range extraSpecs() {
		if s.name == name {
			return build(s), nil
		}
	}
	return Workload{}, fmt.Errorf("%w: %q", ErrUnknownWorkload, name)
}

// All returns the case study followed by the full suite.
func All() []Workload {
	return append([]Workload{CaseStudy()}, Suite()...)
}

func build(s spec) Workload {
	sortSegments(s)
	return Workload{Name: s.name, Description: s.desc, spec: s, prog: s.buildProgram()}
}

// sortSegments normalizes pattern order inside each segment so map
// iteration can never influence generation order (determinism guard).
func sortSegments(s spec) {
	for i := range s.segments {
		seg := &s.segments[i]
		sort.SliceStable(seg.patterns, func(a, b int) bool {
			return seg.patterns[a].block < seg.patterns[b].block
		})
	}
}
