// Quickstart: the minimal end-to-end FTSPM pipeline.
//
// It profiles a workload, runs the Mapping Determiner Algorithm for the
// hybrid FTSPM structure, executes the workload on the simulated
// platform, and prints the reliability/energy/endurance summary — the
// five steps every experiment in this repository is built from.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ftspm/internal/avf"
	"ftspm/internal/core"
	"ftspm/internal/endurance"
	"ftspm/internal/faults"
	"ftspm/internal/profile"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
	"ftspm/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Pick a workload: a program image (blocks) plus a deterministic
	//    memory-access trace generator.
	w, err := workloads.ByName("sha")
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s — %s\n", w.Name, w.Description)

	// 2. Off-line profiling (the paper's static profiling phase):
	//    per-block reads/writes/references/life-times. The trace is
	//    streamed: generated as it is read, never held whole.
	prof, err := profile.Run(w.Program(), w.TraceStream(0.25))
	if err != nil {
		return err
	}
	fmt.Printf("profiled %d blocks over %d cycles\n",
		len(prof.Blocks), prof.ExecCycles)

	// 3. The Mapping Determiner Algorithm (Algorithm 1) distributes the
	//    blocks over the hybrid regions under the default budgets.
	spec := core.MustSpec(core.StructFTSPM)
	mapping, err := core.MapBlocks(prof, spec, core.DefaultThresholds(), core.PriorityReliability)
	if err != nil {
		return err
	}
	for _, d := range mapping.Decisions {
		where := "off-SPM (cache)"
		if d.Mapped {
			where = d.Target.String()
		}
		fmt.Printf("  %-14s -> %-12s (%s)\n", d.Block.Name, where, d.Reason)
	}

	// 4. Execute on the simulated platform (Table IV geometry), on a
	//    second stream of the same deterministic trace.
	machine, err := sim.New(w.Program(), spec.SimConfig(mapping.Placement))
	if err != nil {
		return err
	}
	res, err := machine.Run(w.TraceStream(0.25))
	if err != nil {
		return err
	}
	fmt.Printf("executed in %d cycles; SPM dynamic %v, leakage %v\n",
		res.Cycles, res.SPMDynamicEnergy, res.SPMLeakage)

	// 5. Reliability (equations 1-7) and endurance analysis.
	rep, err := avf.Compute(prof, mapping.Placement, faults.Dist40nm,
		spec.DSPMBytes(), avf.ModePerBlock)
	if err != nil {
		return err
	}
	fmt.Printf("SPM vulnerability %.4f (reliability %.1f%%)\n",
		rep.Vulnerability(), rep.Reliability()*100)

	rate, err := endurance.MaxCellWriteRate(machine.DataSPM(), res.Cycles, spm.RegionSTT)
	if err != nil {
		return err
	}
	fmt.Printf("hottest STT-RAM cell: %.0f writes/s -> %s at a 10^12 write-cycle threshold\n",
		rate, endurance.Humanize(endurance.Lifetime(1e12, rate)))
	return nil
}
