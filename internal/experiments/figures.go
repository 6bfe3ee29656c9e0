package experiments

import (
	"fmt"

	"ftspm/internal/core"
	"ftspm/internal/memtech"
	"ftspm/internal/report"
	"ftspm/internal/spm"
)

// dataKinds is the region order used in distribution tables.
var dataKinds = []spm.RegionKind{spm.RegionSTT, spm.RegionECC, spm.RegionParity}

// distributionRows appends per-region read/write shares of an outcome's
// data SPM to a table.
func distributionRows(t *report.Table, out Outcome) {
	var totalReads, totalWrites uint64
	for _, k := range dataKinds {
		if c, ok := out.Sim.DCtl.PerKind[k]; ok {
			totalReads += c.Reads
			totalWrites += c.Writes
		}
	}
	for _, k := range dataKinds {
		c, ok := out.Sim.DCtl.PerKind[k]
		if !ok {
			continue
		}
		readShare, writeShare := 0.0, 0.0
		if totalReads > 0 {
			readShare = float64(c.Reads) / float64(totalReads)
		}
		if totalWrites > 0 {
			writeShare = float64(c.Writes) / float64(totalWrites)
		}
		t.AddRow(
			out.Workload, k.String(),
			report.Count(int(c.Reads)), report.Count(int(c.Writes)),
			report.Pct(readShare), report.Pct(writeShare),
		)
	}
}

// Fig2 regenerates the case-study read/write distribution across the
// FTSPM regions (paper Fig. 2).
func Fig2(cs *CaseStudy) *report.Table {
	t := report.New(
		"Fig. 2: distribution of data-SPM read/write operations across the FTSPM structure (case study)",
		"Workload", "Region", "Reads", "Writes", "Read share", "Write share")
	distributionRows(t, cs.Outcomes[core.StructFTSPM])
	return t
}

// CaseStudyScalars are the Section IV headline numbers.
type CaseStudyScalars struct {
	// ReliabilityFTSPM and ReliabilityBaseline are the AVF-based
	// reliabilities (paper: 86% vs 62%).
	ReliabilityFTSPM, ReliabilityBaseline float64
	// DynamicVsSRAM is FTSPM dynamic energy relative to the baseline
	// SRAM SPM (paper: 0.56, i.e. 44% lower).
	DynamicVsSRAM float64
	// StaticVsSRAM is the static-energy ratio (paper: 0.44).
	StaticVsSRAM float64
	// PerfOverheadVsSRAM is FTSPM cycles over baseline SRAM cycles − 1
	// (paper: negligible).
	PerfOverheadVsSRAM float64
}

// SectionIV computes the Section IV scalar results.
func SectionIV(cs *CaseStudy) CaseStudyScalars {
	ft, sram := cs.Outcomes[core.StructFTSPM], cs.Outcomes[core.StructPureSRAM]
	return CaseStudyScalars{
		ReliabilityFTSPM:    ft.AVF.Reliability(),
		ReliabilityBaseline: sram.AVF.Reliability(),
		DynamicVsSRAM:       float64(ft.Sim.SPMDynamicEnergy) / float64(sram.Sim.SPMDynamicEnergy),
		StaticVsSRAM:        float64(ft.Sim.SPMStaticEnergy) / float64(sram.Sim.SPMStaticEnergy),
		PerfOverheadVsSRAM:  float64(ft.Sim.Cycles)/float64(sram.Sim.Cycles) - 1,
	}
}

// Fig3 regenerates the per-access dynamic-energy comparison (paper
// Fig. 3): read/write energy of every region of every structure.
func Fig3() (*report.Table, error) {
	t := report.New(
		"Fig. 3: dynamic energy per word access in different structures",
		"Structure", "Region", "Size", "Read energy", "Write energy")
	for _, s := range core.Structures() {
		spec, err := core.NewSpec(s)
		if err != nil {
			return nil, err
		}
		for _, rc := range spec.DSPM {
			bank, err := memtech.EstimateBank(rc.Kind.Technology(), rc.Kind.Protection(), rc.SizeBytes)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				s.String(), rc.Kind.String(),
				fmt.Sprintf("%d KB", rc.SizeBytes/1024),
				bank.ReadEnergy.String(), bank.WriteEnergy.String(),
			)
		}
	}
	return t, nil
}

// Fig4 regenerates the per-benchmark read/write distribution across the
// FTSPM regions (paper Fig. 4).
func Fig4(sw *Sweep) (*report.Table, error) {
	t := report.New(
		"Fig. 4: distribution of data-SPM read/write operations across the FTSPM structure, per benchmark",
		"Workload", "Region", "Reads", "Writes", "Read share", "Write share")
	for _, name := range sw.Workloads {
		out, err := sw.Get(name, core.StructFTSPM)
		if err != nil {
			return nil, err
		}
		distributionRows(t, out)
	}
	return t, nil
}

// Fig5Summary aggregates the vulnerability comparison.
type Fig5Summary struct {
	// Ratios holds the per-workload baseline/FTSPM vulnerability
	// ratios.
	Ratios []float64
	// GeoMeanRatio is the headline improvement (paper: ~7x).
	GeoMeanRatio float64
}

// Fig5 regenerates the vulnerability comparison (paper Fig. 5): FTSPM
// versus the pure SEC-DED SRAM baseline, per benchmark. The pure
// STT-RAM structure is immune (vulnerability 0) and omitted, exactly as
// in the paper.
func Fig5(sw *Sweep) (*report.Table, Fig5Summary, error) {
	t := report.New(
		"Fig. 5: SPM vulnerability (SDC+DUE AVF), FTSPM vs pure SRAM baseline",
		"Workload", "Pure SRAM", "FTSPM", "Improvement")
	var sum Fig5Summary
	for _, name := range sw.Workloads {
		sram, err := sw.Get(name, core.StructPureSRAM)
		if err != nil {
			return nil, sum, err
		}
		ft, err := sw.Get(name, core.StructFTSPM)
		if err != nil {
			return nil, sum, err
		}
		ratio := sram.AVF.Vulnerability() / ft.AVF.Vulnerability()
		sum.Ratios = append(sum.Ratios, ratio)
		t.AddRow(
			name,
			report.Float(sram.AVF.Vulnerability(), 4),
			report.Float(ft.AVF.Vulnerability(), 4),
			report.Float(ratio, 1)+"x",
		)
	}
	sum.GeoMeanRatio = report.GeoMean(sum.Ratios)
	t.AddRow("geo-mean", "", "", report.Float(sum.GeoMeanRatio, 1)+"x")
	return t, sum, nil
}

// energyFig builds a per-workload, per-structure energy table and
// returns the FTSPM/pure-SRAM and FTSPM/pure-STT aggregate ratios
// (ratio of totals, matching the paper's whole-suite percentages).
func energyFig(sw *Sweep, title string, value func(Outcome) float64) (*report.Table, float64, float64, error) {
	t := report.New(title, "Workload", "Pure SRAM", "Pure STT-RAM", "FTSPM",
		"FTSPM/SRAM", "FTSPM/STT")
	var totSRAM, totSTT, totFT float64
	for _, name := range sw.Workloads {
		sram, err := sw.Get(name, core.StructPureSRAM)
		if err != nil {
			return nil, 0, 0, err
		}
		stt, err := sw.Get(name, core.StructPureSTT)
		if err != nil {
			return nil, 0, 0, err
		}
		ft, err := sw.Get(name, core.StructFTSPM)
		if err != nil {
			return nil, 0, 0, err
		}
		vs, vt, vf := value(sram), value(stt), value(ft)
		totSRAM += vs
		totSTT += vt
		totFT += vf
		t.AddRow(name,
			report.Energy(vs), report.Energy(vt), report.Energy(vf),
			report.Float(vf/vs, 2), report.Float(vf/vt, 2))
	}
	rS, rT := totFT/totSRAM, totFT/totSTT
	t.AddRow("total", report.Energy(totSRAM), report.Energy(totSTT), report.Energy(totFT),
		report.Float(rS, 2), report.Float(rT, 2))
	return t, rS, rT, nil
}

// Fig6 regenerates the static-energy comparison (paper Fig. 6). It
// returns the FTSPM/pure-SRAM and FTSPM/pure-STT total ratios.
func Fig6(sw *Sweep) (*report.Table, float64, float64, error) {
	return energyFig(sw,
		"Fig. 6: SPM static energy per benchmark (leakage x execution time)",
		func(o Outcome) float64 { return float64(o.Sim.SPMStaticEnergy) * 1e9 }) // mJ -> pJ
}

// Fig7 regenerates the dynamic-energy comparison (paper Fig. 7: FTSPM
// 47% below pure SRAM, 77% below pure STT-RAM). It returns the
// FTSPM/pure-SRAM and FTSPM/pure-STT total ratios.
func Fig7(sw *Sweep) (*report.Table, float64, float64, error) {
	return energyFig(sw,
		"Fig. 7: SPM dynamic energy per benchmark",
		func(o Outcome) float64 { return float64(o.Sim.SPMDynamicEnergy) })
}

// Fig8 regenerates the endurance comparison (paper Fig. 8): the hottest
// STT-RAM cell's write rate under the pure STT-RAM baseline and FTSPM,
// and the lifetime improvement, per benchmark.
func Fig8(sw *Sweep) (*report.Table, Fig5Summary, error) {
	t := report.New(
		"Fig. 8: STT-RAM endurance, pure STT-RAM baseline vs FTSPM (hottest-cell write rate, writes/s)",
		"Workload", "Pure STT-RAM", "FTSPM", "Lifetime improvement")
	var sum Fig5Summary
	for _, name := range sw.Workloads {
		stt, err := sw.Get(name, core.StructPureSTT)
		if err != nil {
			return nil, sum, err
		}
		ft, err := sw.Get(name, core.StructFTSPM)
		if err != nil {
			return nil, sum, err
		}
		ratio := stt.STTWriteRate / ft.STTWriteRate
		sum.Ratios = append(sum.Ratios, ratio)
		improvement := report.Float(ratio, 0) + "x"
		if ft.STTWriteRate == 0 {
			improvement = "unlimited"
		}
		t.AddRow(name,
			report.Float(stt.STTWriteRate, 0),
			report.Float(ft.STTWriteRate, 0),
			improvement)
	}
	sum.GeoMeanRatio = report.GeoMean(sum.Ratios)
	t.AddRow("geo-mean", "", "", report.Float(sum.GeoMeanRatio, 0)+"x")
	return t, sum, nil
}

// PerfOverhead regenerates the Section V performance claim: FTSPM
// execution time relative to the pure SRAM baseline, per benchmark. The
// returned aggregate is the ratio of total cycles.
func PerfOverhead(sw *Sweep) (*report.Table, float64, error) {
	t := report.New(
		"Performance: execution cycles, FTSPM vs baselines",
		"Workload", "Pure SRAM", "Pure STT-RAM", "FTSPM", "FTSPM/SRAM")
	var totSRAM, totSTT, totFT float64
	for _, name := range sw.Workloads {
		sram, err := sw.Get(name, core.StructPureSRAM)
		if err != nil {
			return nil, 0, err
		}
		stt, err := sw.Get(name, core.StructPureSTT)
		if err != nil {
			return nil, 0, err
		}
		ft, err := sw.Get(name, core.StructFTSPM)
		if err != nil {
			return nil, 0, err
		}
		totSRAM += float64(sram.Sim.Cycles)
		totSTT += float64(stt.Sim.Cycles)
		totFT += float64(ft.Sim.Cycles)
		t.AddRow(name,
			report.Count(int(sram.Sim.Cycles)),
			report.Count(int(stt.Sim.Cycles)),
			report.Count(int(ft.Sim.Cycles)),
			report.Float(float64(ft.Sim.Cycles)/float64(sram.Sim.Cycles), 3))
	}
	ratio := totFT / totSRAM
	t.AddRow("total", report.Count(int(totSRAM)), report.Count(int(totSTT)),
		report.Count(int(totFT)), report.Float(ratio, 3))
	return t, ratio, nil
}
