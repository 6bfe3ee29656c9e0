// Command ftspm-map runs the Mapping Determiner Algorithm (Algorithm 1)
// on a workload's profile and prints the resulting placement — the
// Table II view — together with the budget estimates.
//
// Usage:
//
//	ftspm-map [-workload casestudy] [-structure ftspm] [-priority reliability]
//	          [-scale 0.25] [-csv] [profiling flags of internal/cli; see -h]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"ftspm/internal/campaign"
	"ftspm/internal/cli"
	"ftspm/internal/core"
	"ftspm/internal/profile"
	"ftspm/internal/report"
	"ftspm/internal/workloads"
)

func main() {
	ctx, stop := campaign.SignalContext(context.Background())
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftspm-map:", err)
		os.Exit(campaign.ExitCode(err))
	}
}

// mapMeasurement is one -perfjson record: the wall-clock and allocation
// cost of the profile + MDA hot path, mirroring the measurement shape
// ftspm-bench and ftspm-soak append so one tool can chart all three.
type mapMeasurement struct {
	Benchmark string  `json:"benchmark"`
	Workload  string  `json:"workload"`
	Structure string  `json:"structure"`
	Scale     float64 `json:"scale"`
	cli.Measurement
}

// flagsHook, when set by a test, sees the fully registered flag set
// before parsing.
var flagsHook func(*flag.FlagSet)

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftspm-map", flag.ContinueOnError)
	workload := fs.String("workload", workloads.CaseStudyName, "workload name")
	structure := fs.String("structure", "ftspm", "SPM structure: ftspm, sram, or stt")
	priority := fs.String("priority", "reliability",
		"MDA optimization priority: reliability, performance, power, or endurance")
	scale := fs.Float64("scale", 0.25, "trace length relative to the reference")
	asCSV := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	perf := cli.AddProfileFlags(fs)
	if flagsHook != nil {
		flagsHook(fs)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scale <= 0 {
		return campaign.Usagef("-scale must be > 0 (got %g)", *scale)
	}
	s, err := core.ParseStructure(*structure)
	if err != nil || s == core.StructDMR {
		return campaign.Usagef("unknown structure %q (ftspm, sram, stt)", *structure)
	}
	prio, err := core.ParsePriority(*priority)
	if err != nil {
		return campaign.Usagef("%v", err)
	}
	w, err := workloads.ByName(*workload)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	stopProfile, err := perf.Start()
	if err != nil {
		return err
	}
	defer stopProfile()

	perf.Mark()
	prof, err := profile.Run(w.Program(), w.TraceStream(*scale))
	if err != nil {
		return err
	}
	spec, err := core.NewSpec(s)
	if err != nil {
		return err
	}
	m, err := core.MapBlocks(prof, spec, core.DefaultThresholds(), prio)
	if err != nil {
		return err
	}
	if perf.PerfJSON != "" {
		rec := mapMeasurement{Benchmark: "MapBlocks", Workload: w.Name, Structure: s.String(), Scale: *scale, Measurement: perf.Measure()}
		if err := perf.Append(rec); err != nil {
			return err
		}
	}

	t := report.New(
		fmt.Sprintf("MDA placement: %s on %v (priority %v)", w.Name, s, prio),
		"Block", "Mapped", "Region", "Susceptibility", "Reason")
	for _, d := range m.Decisions {
		mapped, region := "No", "-"
		if d.Mapped {
			mapped, region = "Yes", d.Target.String()
		}
		t.AddRow(d.Block.Name, mapped, region,
			report.Float(prof.Blocks[d.Block.ID].Susceptibility(), 0), d.Reason)
	}
	if *asCSV {
		return t.RenderCSV(out)
	}
	if err := t.Render(out); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out,
		"\nestimated perf overhead %.2f%%, energy overhead %.2f%%, write threshold %.0f words\n",
		m.EstPerfOverhead*100, m.EstEnergyOverhead*100, m.WriteThresholdWords)
	return err
}
