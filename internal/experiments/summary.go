package experiments

import (
	"encoding/json"
	"io"

	"ftspm/internal/core"
)

// Summary is the machine-readable result of a sweep: the headline
// numbers plus one record per (workload, structure) run. It is what
// `ftspm-bench -json` emits, for downstream plotting or regression
// tracking.
type Summary struct {
	// Options echoes the sweep settings.
	Scale float64 `json:"scale"`
	// Headlines are the paper-comparable aggregates.
	Headlines Headlines `json:"headlines"`
	// Runs holds the per-run metrics.
	Runs []RunSummary `json:"runs"`
	// Campaign records the crash-safe campaign's salvage status when the
	// sweep was interrupted or lost jobs to permanent failures. Complete
	// sweeps omit it, so their JSON is unchanged from earlier versions.
	Campaign *CampaignStatus `json:"campaign,omitempty"`
}

// Headlines are the whole-suite aggregates matched against the paper.
type Headlines struct {
	// VulnerabilityImprovement is the Fig. 5 geo-mean ratio (paper ~7x).
	VulnerabilityImprovement float64 `json:"vulnerability_improvement"`
	// DynamicVsSRAM and DynamicVsSTT are the Fig. 7 total ratios
	// (paper 0.53 and 0.23).
	DynamicVsSRAM float64 `json:"dynamic_vs_sram"`
	DynamicVsSTT  float64 `json:"dynamic_vs_stt"`
	// StaticVsSRAM is the Fig. 6 total ratio (paper ~0.45-0.55).
	StaticVsSRAM float64 `json:"static_vs_sram"`
	// EnduranceImprovement is the Fig. 8 geo-mean ratio (paper ~10^3).
	EnduranceImprovement float64 `json:"endurance_improvement"`
	// PerfVsSRAM is the cycles ratio (paper < 1.01).
	PerfVsSRAM float64 `json:"perf_vs_sram"`
}

// RunSummary flattens one Outcome into serializable metrics.
type RunSummary struct {
	Workload         string  `json:"workload"`
	Structure        string  `json:"structure"`
	Cycles           uint64  `json:"cycles"`
	Accesses         uint64  `json:"accesses"`
	SPMDynamicPJ     float64 `json:"spm_dynamic_pj"`
	SPMStaticMJ      float64 `json:"spm_static_mj"`
	SPMLeakageMW     float64 `json:"spm_leakage_mw"`
	CacheEnergyPJ    float64 `json:"cache_energy_pj"`
	DRAMEnergyPJ     float64 `json:"dram_energy_pj"`
	Vulnerability    float64 `json:"vulnerability"`
	Reliability      float64 `json:"reliability"`
	STTWriteRate     float64 `json:"stt_write_rate_per_s"`
	MapIns           uint64  `json:"map_ins"`
	Evictions        uint64  `json:"evictions"`
	TransferCycles   uint64  `json:"transfer_cycles"`
	MappedBlocks     int     `json:"mapped_blocks"`
	EstPerfOverhead  float64 `json:"est_perf_overhead"`
	EstEnergyOverhd  float64 `json:"est_energy_overhead"`
	WriteThresholdWd float64 `json:"write_threshold_words"`
}

// MapEntry is one (workload, structure) placement, as ftspmd's
// /v1/map lists it. The fields are derived purely from the evaluation
// outcome, so an entry is byte-identical whether it was computed for
// the request or served from the cache.
type MapEntry struct {
	Workload  string `json:"workload"`
	Structure string `json:"structure"`
	// Mapping is the MDA decision: the block placement, the per-block
	// decision trail, and the estimated overheads.
	Mapping core.Mapping `json:"mapping"`
	// Run holds the flattened evaluation metrics for the placement.
	Run RunSummary `json:"run"`
}

// Summarize flattens a sweep into a Summary.
func Summarize(sw *Sweep) (*Summary, error) {
	_, f5, err := Fig5(sw)
	if err != nil {
		return nil, err
	}
	_, dynSRAM, dynSTT, err := Fig7(sw)
	if err != nil {
		return nil, err
	}
	_, statSRAM, _, err := Fig6(sw)
	if err != nil {
		return nil, err
	}
	_, f8, err := Fig8(sw)
	if err != nil {
		return nil, err
	}
	_, perf, err := PerfOverhead(sw)
	if err != nil {
		return nil, err
	}
	s := &Summary{
		Scale: sw.Options.Scale,
		Headlines: Headlines{
			VulnerabilityImprovement: f5.GeoMeanRatio,
			DynamicVsSRAM:            dynSRAM,
			DynamicVsSTT:             dynSTT,
			StaticVsSRAM:             statSRAM,
			EnduranceImprovement:     f8.GeoMeanRatio,
			PerfVsSRAM:               perf,
		},
	}
	for i := range sw.Workloads {
		for _, out := range sw.Outcomes[i] {
			s.Runs = append(s.Runs, summarizeRun(out))
		}
	}
	return s, nil
}

// SummarizePartial flattens a possibly-salvaged sweep. A complete,
// fully-successful campaign (resumed or not) summarizes exactly as
// Summarize, byte-identically to an uninterrupted run; a salvaged sweep
// keeps only the runs that finished, zeroes the cross-suite headlines
// (meaningless over a partial suite), and records the campaign status
// under "campaign".
func SummarizePartial(sw *Sweep, status *CampaignStatus) (*Summary, error) {
	if status == nil || (!status.Incomplete && len(status.Failures) == 0) {
		return Summarize(sw)
	}
	s := &Summary{Scale: sw.Options.Scale, Campaign: status}
	for i, name := range sw.Workloads {
		for _, out := range sw.Outcomes[i] {
			if out.Workload != name {
				continue // cell lost to the drain or a failed job
			}
			s.Runs = append(s.Runs, summarizeRun(out))
		}
	}
	return s, nil
}

// SummarizeOutcome flattens one outcome into its serializable metrics —
// the single-evaluation analogue of Summarize, used by the serving
// layer for /v1/evaluate responses.
func SummarizeOutcome(out Outcome) RunSummary { return summarizeRun(out) }

func summarizeRun(out Outcome) RunSummary {
	return RunSummary{
		Workload:         out.Workload,
		Structure:        out.Structure.String(),
		Cycles:           uint64(out.Sim.Cycles),
		Accesses:         out.Sim.Accesses,
		SPMDynamicPJ:     float64(out.Sim.SPMDynamicEnergy),
		SPMStaticMJ:      float64(out.Sim.SPMStaticEnergy),
		SPMLeakageMW:     float64(out.Sim.SPMLeakage),
		CacheEnergyPJ:    float64(out.Sim.CacheEnergy),
		DRAMEnergyPJ:     float64(out.Sim.DRAMEnergy),
		Vulnerability:    out.AVF.Vulnerability(),
		Reliability:      out.AVF.Reliability(),
		STTWriteRate:     out.STTWriteRate,
		MapIns:           out.Sim.ICtl.MapIns + out.Sim.DCtl.MapIns,
		Evictions:        out.Sim.ICtl.Evictions + out.Sim.DCtl.Evictions,
		TransferCycles:   uint64(out.Sim.ICtl.TransferCycles + out.Sim.DCtl.TransferCycles),
		MappedBlocks:     len(out.Mapping.Placement),
		EstPerfOverhead:  out.Mapping.EstPerfOverhead,
		EstEnergyOverhd:  out.Mapping.EstEnergyOverhead,
		WriteThresholdWd: out.Mapping.WriteThresholdWords,
	}
}

// WriteJSON encodes the summary, indented, to w.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
