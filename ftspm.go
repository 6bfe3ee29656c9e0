// Package ftspm is a from-scratch reproduction of "FTSPM: A
// Fault-Tolerant ScratchPad Memory" (Monazzah et al., DSN 2013): a
// hybrid STT-RAM / ECC-SRAM / parity-SRAM scratchpad structure and the
// multi-priority Mapping Determiner Algorithm that distributes program
// blocks over it by vulnerability, under performance, energy, and
// endurance budgets.
//
// This package is the top-level facade. The pieces live in internal
// packages (see DESIGN.md for the full inventory):
//
//   - internal/core — the paper's contribution: structures and the MDA
//   - internal/spm, memtech, ecc, faults — the hardware substrates
//   - internal/sim, cache, dram — the FaCSim-substitute platform
//   - internal/workloads, profile — the MiBench substitute and profiler
//   - internal/avf, endurance — the reliability and wear models
//   - internal/experiments — one driver per paper table/figure
//
// The quickest ways in:
//
//	out, err := ftspm.Evaluate("sha", ftspm.FTSPM, ftspm.Options{})
//	sweep, err := ftspm.RunSweep(ftspm.Options{})
//
// or run the tools: cmd/ftspm-profile, cmd/ftspm-map, cmd/ftspm-sim,
// and cmd/ftspm-bench (which regenerates every table and figure).
package ftspm

import (
	"context"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/workloads"
)

// Structure selects one of the three evaluated SPM organizations.
type Structure = core.Structure

// The evaluated structures (Table IV).
const (
	// FTSPM is the proposed hybrid structure.
	FTSPM = core.StructFTSPM
	// PureSRAM is the SEC-DED SRAM baseline.
	PureSRAM = core.StructPureSRAM
	// PureSTT is the STT-RAM baseline.
	PureSTT = core.StructPureSTT
	// DMR is the related-work duplication comparator [3] (extension).
	DMR = core.StructDMR
)

// Priority selects the MDA optimization target.
type Priority = core.Priority

// MDA priorities (Section III).
const (
	Reliability = core.PriorityReliability
	Performance = core.PriorityPerformance
	Power       = core.PriorityPower
	Endurance   = core.PriorityEndurance
)

// Options parameterize an evaluation; the zero value uses the defaults
// recorded in EXPERIMENTS.md.
type Options = experiments.Options

// Outcome is a full single-run evaluation: profile, mapping, simulation,
// reliability, endurance.
type Outcome = experiments.Outcome

// Sweep is a full-suite, all-structures evaluation.
type Sweep = experiments.Sweep

// Evaluate runs the complete pipeline for one workload on one structure.
func Evaluate(workload string, s Structure, opts Options) (Outcome, error) {
	return experiments.EvaluateByNameContext(context.Background(), workload, s, opts)
}

// RunSweep evaluates the 12-workload suite on all three structures, in
// process and in memory. A job that fails fails the sweep: the error is
// the first failed job's, in campaign order.
func RunSweep(opts Options) (*Sweep, error) {
	sw, status, err := experiments.RunSweepOn(context.Background(), opts, experiments.CampaignConfig{}.RunLocal)
	if err != nil {
		return nil, err
	}
	if f := status.FirstFailure(); f != nil {
		return nil, f
	}
	return sw, nil
}

// Workloads returns the available workload names: the Section IV case
// study followed by the MiBench-substitute suite.
func Workloads() []string {
	return append([]string{workloads.CaseStudyName}, workloads.Names()...)
}
