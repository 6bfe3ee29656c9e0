// Command ftspm-bench regenerates every table and figure of the paper's
// evaluation (the experiment index in DESIGN.md §4), printing the results
// and optionally writing text + CSV files into a results directory.
//
// The full-suite sweep runs as a crash-safe campaign with the campaign
// and profiling flags of internal/cli: checkpoint and resume, a result
// cache, retries and deadlines, and -workers to shard the sweep across
// ftspmd daemons (DESIGN.md §10, §14–16). Merged, resumed and warm
// sweeps are byte-identical to a cold single-node run. SIGINT or
// SIGTERM drains in-flight jobs, flushes the checkpoint, salvages
// partial results, and exits with status 3. The single-machine
// experiments (tables, case study, ablations) always run locally.
//
// Usage:
//
//	ftspm-bench [-scale 0.25] [-out results] [-json file] [-ablations]
//	            [campaign and profiling flags; see -h]
//
// Exit status: 0 success, 1 error, 2 bad flags, 3 interrupted (partial
// results salvaged; resumable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ftspm/internal/campaign"
	"ftspm/internal/cli"
	"ftspm/internal/experiments"
	"ftspm/internal/report"
	"ftspm/internal/resultcache"
)

func main() {
	ctx, stop := campaign.SignalContext(context.Background())
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftspm-bench:", err)
		os.Exit(campaign.ExitCode(err))
	}
}

// sweepMeasurement is one BENCH_sweep.json / -perfjson record: the
// wall-clock and allocation cost of a full RunSweep, so the sweep
// engine's perf trajectory is tracked across PRs.
type sweepMeasurement struct {
	Benchmark string  `json:"benchmark"`
	Scale     float64 `json:"scale"`
	cli.Measurement
	// Cache carries the result-cache counters when -cache was in play,
	// so warm and cold runs are distinguishable in the perf history.
	Cache *resultcache.Stats `json:"cache,omitempty"`
}

// flagsHook, when set by a test, sees the fully registered flag set
// before parsing.
var flagsHook func(*flag.FlagSet)

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftspm-bench", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.25, "trace length relative to the reference")
	outDir := fs.String("out", "", "directory for .txt/.csv result files (empty: stdout only)")
	ablations := fs.Bool("ablations", false, "also run the design-choice ablation studies")
	jsonPath := fs.String("json", "", "also write a machine-readable sweep summary to this file")
	fc := cli.AddCampaignFlags(fs, "sweep job")
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
	if err := fc.Open(); err != nil {
		return err
	}
	defer fc.Close()
	stopProfile, err := perf.Start()
	if err != nil {
		return err
	}
	defer stopProfile()
	opts := experiments.Options{Scale: *scale}

	emit := func(name string, t *report.Table) error {
		if err := t.Render(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		if *outDir == "" {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		if err := campaign.WriteAtomic(filepath.Join(*outDir, name+".txt"), 0o644, t.Render); err != nil {
			return err
		}
		return campaign.WriteAtomic(filepath.Join(*outDir, name+".csv"), 0o644, t.RenderCSV)
	}

	// Configuration and technology tables need no simulation.
	t4, err := experiments.TableIV()
	if err != nil {
		return err
	}
	if err := emit("table4_configurations", t4); err != nil {
		return err
	}
	f3, err := experiments.Fig3()
	if err != nil {
		return err
	}
	if err := emit("fig3_energy_per_access", f3); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Case-study experiments (Section IV), evaluated once for every
	// table that formats them.
	cs, err := experiments.RunCaseStudy(opts)
	if err != nil {
		return err
	}
	if err := emit("table1_case_study_profile", experiments.TableI(cs)); err != nil {
		return err
	}
	if err := emit("table2_case_study_mapping", experiments.TableII(cs)); err != nil {
		return err
	}
	if err := emit("fig2_case_study_distribution", experiments.Fig2(cs)); err != nil {
		return err
	}
	sc := experiments.SectionIV(cs)
	fmt.Fprintf(out, "Section IV scalars: reliability %s vs %s baseline; dynamic %s of baseline; static %s of baseline; perf overhead %s\n\n",
		report.Pct(sc.ReliabilityFTSPM), report.Pct(sc.ReliabilityBaseline),
		report.Pct(sc.DynamicVsSRAM), report.Pct(sc.StaticVsSRAM),
		report.Pct(sc.PerfOverheadVsSRAM))

	_, t3 := experiments.TableIII(cs)
	if err := emit("table3_endurance", t3); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Full-suite sweep (Section V figures), as a crash-safe campaign.
	fmt.Fprintln(out, "running the 12-workload x 3-structure sweep ...")
	perf.Mark()
	sw, status, runErr := experiments.RunSweepOn(ctx, opts, fc.Run)
	if sw == nil {
		return runErr // campaign setup failure (checkpoint, flags)
	}
	fc.PrintSummary(out, status)
	if runErr != nil || status.Failed > 0 {
		return salvageSweep(out, sw, status, *jsonPath, runErr)
	}
	if perf.PerfJSON != "" {
		rec := sweepMeasurement{Benchmark: "RunSweep", Scale: *scale, Measurement: perf.Measure(), Cache: fc.CacheStats()}
		if err := perf.Append(rec); err != nil {
			return err
		}
		fmt.Fprintf(out, "appended sweep measurement to %s\n", perf.PerfJSON)
	}
	f4, err := experiments.Fig4(sw)
	if err != nil {
		return err
	}
	if err := emit("fig4_suite_distribution", f4); err != nil {
		return err
	}
	f5, sum5, err := experiments.Fig5(sw)
	if err != nil {
		return err
	}
	if err := emit("fig5_vulnerability", f5); err != nil {
		return err
	}
	f6, statSRAM, statSTT, err := experiments.Fig6(sw)
	if err != nil {
		return err
	}
	if err := emit("fig6_static_energy", f6); err != nil {
		return err
	}
	f7, dynSRAM, dynSTT, err := experiments.Fig7(sw)
	if err != nil {
		return err
	}
	if err := emit("fig7_dynamic_energy", f7); err != nil {
		return err
	}
	f8, sum8, err := experiments.Fig8(sw)
	if err != nil {
		return err
	}
	if err := emit("fig8_endurance", f8); err != nil {
		return err
	}
	fp, perfRatio, err := experiments.PerfOverhead(sw)
	if err != nil {
		return err
	}
	if err := emit("perf_overhead", fp); err != nil {
		return err
	}

	if *jsonPath != "" {
		summary, err := experiments.Summarize(sw)
		if err != nil {
			return err
		}
		if err := campaign.WriteAtomic(*jsonPath, 0o644, summary.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote JSON summary to %s\n", *jsonPath)
	}

	if *ablations {
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Fprintln(out, "running ablation studies ...")
		at, err := experiments.AblationScheduleTable(opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_schedule", at); err != nil {
			return err
		}
		_, rt, err := experiments.AblationRegionSplit(opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_region_split", rt); err != nil {
			return err
		}
		pt, err := experiments.AblationPriorities("basicmath", opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_priorities", pt); err != nil {
			return err
		}
		_, wt, err := experiments.AblationWriteThreshold(opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_write_threshold", wt); err != nil {
			return err
		}
		_, it, err := experiments.AblationInterleaving(50000, 2013)
		if err != nil {
			return err
		}
		if err := emit("ablation_interleaving", it); err != nil {
			return err
		}
		_, st, err := experiments.AblationScrubbing(3000, 2013)
		if err != nil {
			return err
		}
		if err := emit("ablation_scrubbing", st); err != nil {
			return err
		}
		_, rw := experiments.RelatedWork(cs)
		if err := emit("related_work", rw); err != nil {
			return err
		}
		_, ret, err := experiments.AblationRetention("sha", opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_retention", ret); err != nil {
			return err
		}
		for _, wl := range []string{"casestudy", "matmul"} {
			_, gt, err := experiments.AblationGranularity(wl, opts)
			if err != nil {
				return err
			}
			if err := emit("ablation_granularity_"+wl, gt); err != nil {
				return err
			}
		}
		_, vt, err := experiments.ValidateAVF("casestudy", 0.05, 2013, opts)
		if err != nil {
			return err
		}
		if err := emit("validation_live_injection", vt); err != nil {
			return err
		}
		_, nt, err := experiments.AblationTechNode("casestudy", opts)
		if err != nil {
			return err
		}
		if err := emit("ablation_tech_node", nt); err != nil {
			return err
		}
	}

	fmt.Fprintln(out, "Headline results (paper targets in parentheses):")
	fmt.Fprintf(out, "  vulnerability improvement: %.1fx geo-mean (paper ~7x)\n", sum5.GeoMeanRatio)
	fmt.Fprintf(out, "  dynamic energy: %.0f%% below pure SRAM (47%%), %.0f%% below pure STT-RAM (77%%)\n",
		(1-dynSRAM)*100, (1-dynSTT)*100)
	fmt.Fprintf(out, "  static energy: %.0f%% below pure SRAM (45-55%%); pure STT-RAM lowest (FTSPM/STT %.2f)\n",
		(1-statSRAM)*100, statSTT)
	fmt.Fprintf(out, "  endurance improvement: %.0fx geo-mean (paper ~3 orders of magnitude)\n", sum8.GeoMeanRatio)
	fmt.Fprintf(out, "  performance overhead vs pure SRAM: %.1f%% (paper <1%%)\n", (perfRatio-1)*100)
	return nil
}

// salvageSweep reports an interrupted or partially-failed sweep: it
// writes the partial JSON summary (explicitly marked incomplete) when
// requested, prints what happened, and returns the campaign error so
// the process exits non-zero (status 3 when resumable).
func salvageSweep(out io.Writer, sw *experiments.Sweep, status *experiments.CampaignStatus,
	jsonPath string, runErr error) error {
	fmt.Fprintf(out, "sweep incomplete: %d done, %d failed, %d pending\n",
		status.Completed, status.Failed, status.Pending)
	if jsonPath != "" {
		summary, err := experiments.SummarizePartial(sw, status)
		if err != nil {
			return errors.Join(runErr, err)
		}
		if err := campaign.WriteAtomic(jsonPath, 0o644, summary.WriteJSON); err != nil {
			return errors.Join(runErr, err)
		}
		fmt.Fprintf(out, "salvaged partial JSON summary to %s\n", jsonPath)
	}
	if runErr != nil {
		return runErr
	}
	return status.FirstFailure()
}
