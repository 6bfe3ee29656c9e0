package experiments

import (
	"fmt"

	"ftspm/internal/core"
	"ftspm/internal/endurance"
	"ftspm/internal/memtech"
	"ftspm/internal/report"
	"ftspm/internal/spm"
	"ftspm/internal/workloads"
)

// CaseStudy holds every evaluation of the Section IV case study: the
// outcomes that Tables I–III, Fig. 2, the Section IV scalars and the
// related-work comparison format, as Fig4–Fig8 format a Sweep.
type CaseStudy struct {
	// Options records the settings; Outcomes ran at Options.Scale.
	Options Options
	// Outcomes holds the outcome of every structure of
	// core.AllStructures().
	Outcomes map[core.Structure]Outcome
	// FullSTT and FullFTSPM are pure STT-RAM and FTSPM at full trace
	// length (Table III).
	FullSTT, FullFTSPM Outcome
}

// RunCaseStudy evaluates the case study as two groups (evaluateGroup):
// every structure of core.AllStructures() at opts.Scale, and pure
// STT-RAM and FTSPM at full trace length. Table III runs at full length
// regardless of opts.Scale: the hottest-cell rates are what a real
// execution accumulates, and short traces understate the stack's wear.
func RunCaseStudy(opts Options) (*CaseStudy, error) {
	opts = opts.normalize()
	w := workloads.CaseStudy()
	variants := func(structures ...core.Structure) []variant {
		vs := make([]variant, len(structures))
		for i, s := range structures {
			vs[i] = variant{spec: core.MustSpec(s), opts: opts}
		}
		return vs
	}
	outs, err := evaluateAll(w, nil, opts.Scale, variants(core.AllStructures()...))
	if err != nil {
		return nil, err
	}
	full, err := evaluateAll(w, nil, 1.0, variants(core.StructPureSTT, core.StructFTSPM))
	if err != nil {
		return nil, err
	}
	cs := &CaseStudy{Options: opts, Outcomes: make(map[core.Structure]Outcome), FullSTT: full[0], FullFTSPM: full[1]}
	for _, out := range outs {
		cs.Outcomes[out.Structure] = out
	}
	return cs, nil
}

// TableI regenerates the case-study profiling table (paper Table I):
// per-block reads, writes, per-reference averages, stack statistics, and
// life-time.
func TableI(cs *CaseStudy) *report.Table {
	t := report.New(
		fmt.Sprintf("Table I: profiling of the case-study program (scale %.2f)", cs.Options.Scale),
		"Block", "Reads", "Writes", "Avg reads/ref", "Avg writes/ref",
		"Stack calls", "Max stack (B)", "Life-time (cycles)")
	for _, bp := range cs.Outcomes[core.StructFTSPM].Profile.Blocks {
		t.AddRow(
			bp.Block.Name,
			report.Count(bp.Reads),
			report.Count(bp.Writes),
			report.Float(bp.AvgReadsPerRef(), 1),
			report.Float(bp.AvgWritesPerRef(), 1),
			report.Count(bp.StackCalls),
			report.Count(bp.MaxStackBytes),
			report.Count(int(bp.Lifetime)),
		)
	}
	return t
}

// TableII regenerates the MDA placement for the case study (paper Table
// II): whether each block is mapped and to which region.
func TableII(cs *CaseStudy) *report.Table {
	t := report.New(
		"Table II: Mapping Determiner Algorithm output for the case study",
		"Block", "Mapped to SPM", "Region", "Reason")
	for _, d := range cs.Outcomes[core.StructFTSPM].Mapping.Decisions {
		mapped, region := "No", "-"
		if d.Mapped {
			mapped = "Yes"
			region = d.Target.String()
		}
		t.AddRow(d.Block.Name, mapped, region, d.Reason)
	}
	return t
}

// TableIIIResult carries the endurance sweep of paper Table III.
type TableIIIResult struct {
	// Rows are the per-threshold lifetimes.
	Rows []endurance.Row
	// BaselineRate and FTSPMRate are the hottest-STT-cell write rates
	// (writes/second).
	BaselineRate, FTSPMRate float64
}

// Improvement returns the (threshold-invariant) lifetime ratio.
func (r TableIIIResult) Improvement() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return r.Rows[0].Improvement()
}

// TableIII regenerates the endurance comparison (paper Table III):
// lifetime of the pure STT-RAM SPM versus FTSPM across write-cycle
// thresholds 10^12..10^16, from the full-length case-study runs.
func TableIII(cs *CaseStudy) (*TableIIIResult, *report.Table) {
	base, ftspm := cs.FullSTT, cs.FullFTSPM
	res := &TableIIIResult{
		Rows:         endurance.Table(base.STTWriteRate, ftspm.STTWriteRate, endurance.PaperThresholds()),
		BaselineRate: base.STTWriteRate,
		FTSPMRate:    ftspm.STTWriteRate,
	}
	t := report.New(
		"Table III: endurance of pure STT-RAM SPM vs FTSPM (case study, full trace)",
		"Write threshold", "Pure STT-RAM SPM", "FTSPM", "Improvement")
	for _, row := range res.Rows {
		t.AddRow(
			fmt.Sprintf("%.0e", row.Threshold),
			endurance.Humanize(row.BaselineSTTSec),
			endurance.Humanize(row.FTSPMSec),
			report.Float(row.Improvement(), 0)+"x",
		)
	}
	return res, t
}

// TableIV renders the structure configurations (paper Table IV).
func TableIV() (*report.Table, error) {
	t := report.New(
		"Table IV: configuration parameters of the evaluated structures",
		"Structure", "SPM", "Region", "Size", "Read lat", "Write lat", "Leakage")
	for _, s := range core.Structures() {
		spec, err := core.NewSpec(s)
		if err != nil {
			return nil, err
		}
		add := func(side string, regions []spm.RegionConfig) error {
			for _, rc := range regions {
				bank, err := memtech.EstimateBank(rc.Kind.Technology(), rc.Kind.Protection(), rc.SizeBytes)
				if err != nil {
					return err
				}
				t.AddRow(
					s.String(), side, rc.Kind.String(),
					fmt.Sprintf("%d KB", rc.SizeBytes/1024),
					fmt.Sprintf("%d clk", bank.ReadLatency),
					fmt.Sprintf("%d clk", bank.WriteLatency),
					bank.Leakage.String(),
				)
			}
			return nil
		}
		if err := add("I-SPM", spec.ISPM); err != nil {
			return nil, err
		}
		if err := add("D-SPM", spec.DSPM); err != nil {
			return nil, err
		}
	}
	return t, nil
}
