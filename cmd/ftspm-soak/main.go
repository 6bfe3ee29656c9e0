// Command ftspm-soak runs Monte-Carlo soak campaigns of the runtime
// error-recovery subsystem: many independently-seeded executions of a
// workload under live particle strikes (and optionally STT-RAM write
// wear), reporting recovered/DUE/SDC rates and time-to-degraded per
// structure.
//
// All (structure, trial) pairs run as one crash-safe campaign with the
// campaign and profiling flags of internal/cli: checkpoint and resume,
// a result cache, retries and deadlines, and -workers to shard the
// trials across ftspmd daemons with -audit-frac re-execution audits
// (DESIGN.md §10, §14–16). Merged, resumed and warm campaigns are
// byte-identical to an uninterrupted single-node run. SIGINT or
// SIGTERM drains in-flight trials, flushes the checkpoint, salvages
// partial reports (marked incomplete), and exits with status 3.
//
// Usage:
//
//	ftspm-soak [-workload casestudy] [-structures ftspm,sram,stt]
//	           [-trials 8] [-scale 0.05] [-strike 0.01] [-target data]
//	           [-scrub 4096] [-policy rollback] [-no-recovery]
//	           [-wear-fail 0] [-wear-stuck 0] [-seed 1] [-json file]
//	           [-lanes 0]
//	           [-storm] [-storm-calm 0.001] [-storm-intensity 0.2]
//	           [-storm-calm-dwell 4000] [-storm-dwell 400] [-storm-span 2]
//	           [-storm-thermal 1] [-storm-hot 0] [-storm-hot-blocks 4]
//	           [-adaptive]
//	           [campaign and profiling flags; see -h]
//
// Cache keys carry the full fault/wear/recovery model, so a cache
// warmed under one strike rate or recovery policy is strictly bypassed
// — never wrongly served — under another; keys omit the campaign size,
// so a 2-trial warmup serves the first 2 trials of a later 8-trial
// campaign.
//
// -lanes controls the bit-parallel packed engine (internal/simd): 0
// (the default) packs up to 64 trials per trace pass, 1 forces the
// scalar simulator, 2..64 caps the batch width; any other value exits
// 2. Results are identical either way; the knob exists for benchmarking
// and bisection.
//
// -storm replaces the memoryless strike process with the correlated
// fault storm (DESIGN.md §17): Markov-modulated calm/storm bursts,
// spatially clustered multi-word events (-storm-span), a thermal
// write-failure ramp coupling into -wear-fail (-storm-thermal), and
// adversarial targeting of the hottest profiled blocks (-storm-hot).
// -adaptive arms the controller's storm defenses: windowed error-rate
// tracking with scrub escalation and hysteresis, emergency re-fetch of
// clean residents in storming regions, and storm-triggered bypass down
// the degradation ladder. Storm campaigns always run the scalar
// simulator (the packed engine rejects them and the job falls back).
//
// Exit status: 0 success, 1 error, 2 bad flags, 3 interrupted (partial
// reports salvaged; resumable).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ftspm/internal/campaign"
	"ftspm/internal/cli"
	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/faults"
	"ftspm/internal/report"
	"ftspm/internal/resultcache"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
	"ftspm/internal/workloads"
)

func main() {
	ctx, stop := campaign.SignalContext(context.Background())
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftspm-soak:", err)
		os.Exit(campaign.ExitCode(err))
	}
}

// soakMeasurement is one BENCH_soak.json "perf" / -perfjson record:
// the wall-clock and allocation cost of a full RunSoakCampaign, keyed
// by the lane width so the packed engine's speedup over the scalar
// simulator is tracked across PRs.
type soakMeasurement struct {
	Benchmark string  `json:"benchmark"`
	Lanes     int     `json:"lanes"`
	Trials    int     `json:"trials"`
	Scale     float64 `json:"scale"`
	cli.Measurement
	// Cache carries the result-cache counters when -cache was in play,
	// so warm and cold runs are distinguishable in the perf history.
	Cache *resultcache.Stats `json:"cache,omitempty"`
}

func parseStructures(s string) ([]core.Structure, error) {
	var out []core.Structure
	for _, name := range strings.Split(s, ",") {
		if strings.EqualFold(strings.TrimSpace(name), "all") {
			out = append(out, core.AllStructures()...)
			continue
		}
		st, err := core.ParseStructure(name)
		if err != nil {
			return nil, campaign.Usagef("unknown structure %q (ftspm, sram, stt, dmr, all)", name)
		}
		out = append(out, st)
	}
	return out, nil
}

func parseTarget(s string) (sim.InjectionTarget, error) {
	switch strings.ToLower(s) {
	case "data", "data-spm":
		return sim.TargetDataSPM, nil
	case "inst", "inst-spm", "code":
		return sim.TargetInstSPM, nil
	case "both":
		return sim.TargetBothSPMs, nil
	default:
		return 0, campaign.Usagef("unknown injection target %q (data, inst, both)", s)
	}
}

func parsePolicy(s string) (spm.DUEPolicy, error) {
	switch strings.ToLower(s) {
	case "rollback":
		return spm.DUERollback, nil
	case "sdc":
		return spm.DUEAsSDC, nil
	default:
		return 0, campaign.Usagef("unknown DUE policy %q (rollback, sdc)", s)
	}
}

// flagsHook, when set by a test, sees the fully registered flag set
// before parsing.
var flagsHook func(*flag.FlagSet)

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftspm-soak", flag.ContinueOnError)
	workload := fs.String("workload", workloads.CaseStudyName, "workload name")
	structures := fs.String("structures", "ftspm,sram,stt", "comma-separated structures (or 'all')")
	trials := fs.Int("trials", 8, "independently-seeded runs per structure")
	scale := fs.Float64("scale", 0.05, "trace length relative to the reference")
	strike := fs.Float64("strike", 0.01, "per-access particle-strike probability")
	target := fs.String("target", "data", "struck SPM(s): data, inst, or both")
	scrub := fs.Uint64("scrub", 4096, "accesses between background scrubs (0 disables)")
	policy := fs.String("policy", "rollback", "dirty-block DUE policy: rollback or sdc")
	noRecovery := fs.Bool("no-recovery", false, "run the detection-only baseline (recovery off)")
	wearFail := fs.Float64("wear-fail", 0, "per-word STT-RAM transient write-failure probability")
	wearStuck := fs.Float64("wear-stuck", 0, "per-word-write STT-RAM cell wear-out probability")
	seed := fs.Int64("seed", 1, "campaign seed")
	storm := fs.Bool("storm", false, "replace the memoryless strike process with the correlated fault storm")
	stormCalm := fs.Float64("storm-calm", 0.001, "calm-state strike probability per access")
	stormIntensity := fs.Float64("storm-intensity", 0.2, "storm-state strike probability per access")
	stormCalmDwell := fs.Float64("storm-calm-dwell", 4000, "mean calm dwell in accesses")
	stormDwell := fs.Float64("storm-dwell", 400, "mean storm dwell in accesses")
	stormSpan := fs.Int("storm-span", 2, "adjacent words corrupted per storm-state event")
	stormThermal := fs.Float64("storm-thermal", 1, "wear write-failure multiplier at full storm heat (1 disables)")
	stormHot := fs.Float64("storm-hot", 0, "fraction of strikes aimed at the hottest profiled blocks")
	stormHotBlocks := fs.Int("storm-hot-blocks", 4, "how many hottest blocks the adversary targets per SPM")
	adaptive := fs.Bool("adaptive", false, "arm the adaptive storm defenses (scrub escalation, emergency refresh, bypass)")
	lanes := fs.Int("lanes", 0, "packed-engine lane width: 0 auto (64), 1 scalar, 2..64 explicit")
	jsonPath := fs.String("json", "", "also write the reports as JSON to this file")
	fc := cli.AddCampaignFlags(fs, "trial")
	perf := cli.AddProfileFlags(fs)
	if flagsHook != nil {
		flagsHook(fs)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials <= 0 {
		return campaign.Usagef("-trials must be > 0 (got %d)", *trials)
	}
	if *scale <= 0 {
		return campaign.Usagef("-scale must be > 0 (got %g)", *scale)
	}
	if *strike < 0 || *strike > 1 {
		return campaign.Usagef("-strike must be a probability in [0, 1] (got %g)", *strike)
	}
	if *adaptive && *noRecovery {
		return campaign.Usagef("-adaptive needs the recovery subsystem (drop -no-recovery)")
	}
	if (*stormHot != 0 || *stormThermal != 1) && !*storm {
		return campaign.Usagef("-storm-* knobs need -storm")
	}
	if err := experiments.ValidateLanes(*lanes); err != nil {
		return err
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
	structs, err := parseStructures(*structures)
	if err != nil {
		return err
	}
	tgt, err := parseTarget(*target)
	if err != nil {
		return err
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}

	opts := experiments.SoakOptions{
		Workload:         *workload,
		Trials:           *trials,
		Scale:            *scale,
		StrikesPerAccess: *strike,
		Target:           tgt,
		Seed:             *seed,
		Lanes:            *lanes,
	}
	if !*noRecovery {
		rec := spm.DefaultRecovery()
		rec.ScrubInterval = *scrub
		rec.DirtyPolicy = pol
		if *adaptive {
			ad := spm.DefaultAdaptive()
			rec.Adaptive = &ad
		}
		opts.Recovery = &rec
	}
	if *storm {
		opts.Storm = &faults.StormConfig{
			CalmStrikesPerAccess:  *stormCalm,
			StormStrikesPerAccess: *stormIntensity,
			MeanCalmAccesses:      *stormCalmDwell,
			MeanStormAccesses:     *stormDwell,
			SpatialSpan:           *stormSpan,
			ThermalFactor:         *stormThermal,
			HotBias:               *stormHot,
			HotBlocks:             *stormHotBlocks,
		}
	}
	if *wearFail > 0 || *wearStuck > 0 {
		opts.Wear = &spm.WearConfig{
			WriteFailProb:   *wearFail,
			MaxWriteRetries: 3,
			StuckAtProb:     *wearStuck,
		}
	}

	mode := "recovery on"
	if *noRecovery {
		mode = "detection only"
	}
	if *adaptive {
		mode = "adaptive recovery"
	}
	if *storm {
		fmt.Fprintf(out, "soak: %s, %d trials/structure, scale %.2f, storm %.4g/%.4g per access (dwell %g/%g) on %v (%s)\n",
			*workload, *trials, *scale, *stormCalm, *stormIntensity, *stormCalmDwell, *stormDwell, tgt, mode)
	} else {
		fmt.Fprintf(out, "soak: %s, %d trials/structure, scale %.2f, strike %.4g/access on %v (%s)\n",
			*workload, *trials, *scale, *strike, tgt, mode)
	}

	perf.Mark()
	reports, status, runErr := experiments.RunSoakOn(ctx, opts, structs, fc.Run)
	if reports == nil {
		return runErr // campaign setup failure (checkpoint, flags)
	}
	if perf.PerfJSON != "" && runErr == nil {
		rec := soakMeasurement{Benchmark: "RunSoakCampaign", Lanes: opts.Lanes, Trials: opts.Trials,
			Scale: opts.Scale, Measurement: perf.Measure(), Cache: fc.CacheStats()}
		if err := perf.Append(rec); err != nil {
			return err
		}
	}
	fc.PrintSummary(out, status)

	t := report.New("\nSoak campaign",
		"Structure", "Strikes", "Recovered/strike", "DUE/strike", "SDC/strike",
		"Degraded", "Mean TTD")
	for _, rep := range reports {
		ttd := "-"
		if rep.DegradedTrials > 0 {
			ttd = report.Count(int(rep.MeanTimeToDegraded)) + " acc"
		}
		structure := rep.Structure.String()
		if rep.Incomplete {
			structure += fmt.Sprintf(" (incomplete: %d/%d trials)", rep.Trials, rep.PlannedTrials)
		}
		t.AddRow(structure,
			report.Count(int(rep.Strikes)),
			report.Float(rep.RecoveredRate(), 4),
			report.Float(rep.DUERate(), 4),
			report.Float(rep.SDCRate(), 4),
			fmt.Sprintf("%d/%d", rep.DegradedTrials, rep.Trials),
			ttd)
	}
	if err := t.Render(out); err != nil {
		return err
	}
	for _, rep := range reports {
		rc := rep.Recovery
		fmt.Fprintf(out, "\n%v recovery activity: %d corrected in-line, %d re-fetched, %d rollbacks, "+
			"%d scrub runs (%d repairs, %d re-fetches, %d restores), %d write retries, "+
			"%d stuck-word events, %d remaps, %d demotions, %d retired words\n",
			rep.Structure, rc.CorrectedOnAccess, rc.RefetchedWords, rc.Rollbacks,
			rc.ScrubRuns, rc.ScrubRepairs, rc.ScrubRefetches, rc.ScrubRestores,
			rc.WriteRetries, rc.StuckWordEvents, rc.Remaps, rc.Demotions, rc.RetiredWords)
		if *storm {
			fmt.Fprintf(out, "%v storm defense: peak window error rate %.4f, %d escalations / %d de-escalations "+
				"(%d accesses escalated), %d blocks emergency-refreshed (%d words), %d storm bypasses\n",
				rep.Structure, rc.PeakWindowErrorRate, rc.ScrubEscalations, rc.ScrubDeescalations,
				rc.EscalatedAccesses, rc.EmergencyRefreshBlocks, rc.EmergencyRefreshWords, rc.StormBypasses)
		}
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := campaign.WriteFileAtomic(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		if status.Incomplete {
			fmt.Fprintf(out, "\nsalvaged partial reports to %s\n", *jsonPath)
		} else {
			fmt.Fprintf(out, "\nwrote %s\n", *jsonPath)
		}
	}
	if runErr != nil {
		fmt.Fprintf(out, "\nsoak incomplete: %d done, %d failed, %d pending\n",
			status.Completed, status.Failed, status.Pending)
		return runErr
	}
	return status.FirstFailure()
}
