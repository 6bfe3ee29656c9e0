// Command ftspm-sim runs a workload on one of the evaluated SPM
// structures and prints the full accounting: cycles, energy, reliability,
// endurance, cache and on-line transfer statistics.
//
// Usage:
//
//	ftspm-sim [-workload casestudy] [-structure ftspm] [-scale 0.25]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/endurance"
	"ftspm/internal/experiments"
	"ftspm/internal/report"
	"ftspm/internal/schedule"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
	"ftspm/internal/workloads"
)

func main() {
	ctx, stop := campaign.SignalContext(context.Background())
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftspm-sim:", err)
		os.Exit(campaign.ExitCode(err))
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftspm-sim", flag.ContinueOnError)
	workload := fs.String("workload", workloads.CaseStudyName, "workload name")
	structure := fs.String("structure", "ftspm", "SPM structure: ftspm, sram, stt, or dmr")
	scale := fs.Float64("scale", 0.25, "trace length relative to the reference")
	priority := fs.String("priority", "reliability",
		"MDA optimization priority: reliability, performance, power, or endurance")
	usePlan := fs.Bool("plan", false,
		"execute a static (Belady) SMI transfer schedule instead of on-demand LRU")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 {
		return campaign.Usagef("-scale must be > 0 (got %g)", *scale)
	}
	s, err := core.ParseStructure(*structure)
	if err != nil {
		return campaign.Usagef("unknown structure %q (ftspm, sram, stt, dmr)", *structure)
	}
	prio, err := core.ParsePriority(*priority)
	if err != nil {
		return campaign.Usagef("%v", err)
	}

	opts := experiments.Options{Scale: *scale, Priority: prio}
	o, err := experiments.EvaluateByNameContext(ctx, *workload, s, opts)
	if err != nil {
		return err
	}
	if *usePlan {
		if err := ctx.Err(); err != nil {
			return err
		}
		w, err := workloads.ByName(*workload)
		if err != nil {
			return err
		}
		// The planner and the replayed execution stream the trace
		// instead of materializing it; the seeded generator guarantees
		// both see the exact sequence the MDA's profile was built from.
		plan, err := schedule.Build(w.Program(), o.Mapping.Placement, w.TraceStream(*scale),
			schedule.RegionWords(o.Spec.ISPM), schedule.RegionWords(o.Spec.DSPM))
		if err != nil {
			return err
		}
		machine, err := sim.New(w.Program(), o.Spec.SimConfig(o.Mapping.Placement))
		if err != nil {
			return err
		}
		res, err := machine.RunWithPlan(w.TraceStream(*scale), plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "static SMI schedule: %d loads, %d planned evictions\n",
			plan.Loads, plan.Evictions)
		o.Sim = res
	}

	fmt.Fprintf(out, "%s on %v (scale %.2f)\n\n", o.Workload, o.Structure, *scale)
	fmt.Fprintf(out, "execution:     %s cycles (%s accesses, %s compute cycles)\n",
		report.Count(int(o.Sim.Cycles)), report.Count(int(o.Sim.Accesses)),
		report.Count(int(o.Sim.ThinkCycles)))
	fmt.Fprintf(out, "SPM dynamic:   %s\n", report.Energy(float64(o.Sim.SPMDynamicEnergy)))
	fmt.Fprintf(out, "SPM static:    %s (leakage %v)\n",
		report.Energy(float64(o.Sim.SPMStaticEnergy)*1e9), o.Sim.SPMLeakage)
	fmt.Fprintf(out, "cache energy:  %s   DRAM energy: %s\n",
		report.Energy(float64(o.Sim.CacheEnergy)), report.Energy(float64(o.Sim.DRAMEnergy)))
	fmt.Fprintf(out, "vulnerability: %.4f (reliability %s, %v AVF)\n",
		o.AVF.Vulnerability(), report.Pct(o.AVF.Reliability()), o.AVF.Mode)
	if o.STTWriteRate > 0 {
		fmt.Fprintf(out, "endurance:     hottest STT-RAM cell at %.0f writes/s -> %s at 1e12 write cycles\n",
			o.STTWriteRate, endurance.Humanize(endurance.Lifetime(1e12, o.STTWriteRate)))
	} else {
		fmt.Fprintln(out, "endurance:     no STT-RAM wear")
	}

	t := report.New("\nData-SPM traffic by region",
		"Region", "Reads", "Writes")
	for _, k := range []spm.RegionKind{spm.RegionSTT, spm.RegionECC, spm.RegionParity} {
		if c, ok := o.Sim.DCtl.PerKind[k]; ok {
			t.AddRow(k.String(), report.Count(int(c.Reads)), report.Count(int(c.Writes)))
		}
	}
	if err := t.Render(out); err != nil {
		return err
	}

	fmt.Fprintf(out, "\non-line phase: %d map-ins, %d evictions, %s write-back words, %s transfer cycles\n",
		o.Sim.DCtl.MapIns+o.Sim.ICtl.MapIns,
		o.Sim.DCtl.Evictions+o.Sim.ICtl.Evictions,
		report.Count(int(o.Sim.DCtl.WritebackWords)),
		report.Count(int(o.Sim.DCtl.TransferCycles+o.Sim.ICtl.TransferCycles)))
	fmt.Fprintf(out, "caches:        I %.1f%% hit, D %.1f%% hit (unmapped blocks only)\n",
		o.Sim.ICacheStats.HitRate()*100, o.Sim.DCacheStats.HitRate()*100)

	if regions := o.AVF.ByRegion(); len(regions) > 0 {
		rt := report.New("\nVulnerability by region (SDC/DUE AVF)",
			"Region", "Blocks", "SDC", "DUE")
		for _, c := range regions {
			rt.AddRow(c.Region.String(), report.Count(c.Blocks),
				report.Float(c.SDC, 4), report.Float(c.DUE, 4))
		}
		if err := rt.Render(out); err != nil {
			return err
		}
	}
	return nil
}
