package experiments

import (
	"fmt"
	"math/rand"

	"ftspm/internal/avf"
	"ftspm/internal/core"
	"ftspm/internal/dram"
	"ftspm/internal/ecc"
	"ftspm/internal/faults"
	"ftspm/internal/memtech"
	"ftspm/internal/profile"
	"ftspm/internal/program"
	"ftspm/internal/report"
	"ftspm/internal/schedule"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
	"ftspm/internal/workloads"
)

// Ablation studies: each isolates one design choice of FTSPM and sweeps
// it, holding everything else at the defaults. They are extensions
// beyond the paper's own evaluation (its "according to system
// requirements" knobs), indexed in DESIGN.md §4.

// ScheduleComparison contrasts the two implementations of the on-line
// phase: on-demand LRU transfers versus the statically planned (SMI,
// Belady) schedule.
type ScheduleComparison struct {
	Workload                  string
	OnDemandCycles            uint64
	ScheduledCycles           uint64
	OnDemandTransferCycles    uint64
	ScheduledTransferCycles   uint64
	OnDemandMapIns            uint64
	ScheduledMapIns           uint64
	PlannedLoads, PlannedEvix int
}

// AblationSchedule runs one workload on FTSPM twice — on-demand and with
// a static Belady plan — and reports the transfer-traffic difference.
// Every pass streams the trace; the plan's builder alone keeps a use
// list per access (schedule.Build).
func AblationSchedule(workloadName string, opts Options) (ScheduleComparison, error) {
	opts = opts.normalize()
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return ScheduleComparison{}, err
	}
	spec := core.MustSpec(core.StructFTSPM)
	outs, err := evaluateAll(w, nil, opts.Scale, []variant{{spec: spec, opts: opts}})
	if err != nil {
		return ScheduleComparison{}, err
	}
	onDemand, placement := outs[0].Sim, outs[0].Mapping.Placement
	plan, err := schedule.Build(w.Program(), placement, w.TraceStream(opts.Scale),
		schedule.RegionWords(spec.ISPM), schedule.RegionWords(spec.DSPM))
	if err != nil {
		return ScheduleComparison{}, err
	}
	m, err := sim.New(w.Program(), spec.SimConfig(placement))
	if err != nil {
		return ScheduleComparison{}, err
	}
	scheduled, err := m.RunWithPlan(w.TraceStream(opts.Scale), plan)
	if err != nil {
		return ScheduleComparison{}, err
	}

	return ScheduleComparison{
		Workload:                workloadName,
		OnDemandCycles:          uint64(onDemand.Cycles),
		ScheduledCycles:         uint64(scheduled.Cycles),
		OnDemandTransferCycles:  uint64(onDemand.ICtl.TransferCycles + onDemand.DCtl.TransferCycles),
		ScheduledTransferCycles: uint64(scheduled.ICtl.TransferCycles + scheduled.DCtl.TransferCycles),
		OnDemandMapIns:          onDemand.ICtl.MapIns + onDemand.DCtl.MapIns,
		ScheduledMapIns:         scheduled.ICtl.MapIns + scheduled.DCtl.MapIns,
		PlannedLoads:            plan.Loads,
		PlannedEvix:             plan.Evictions,
	}, nil
}

// AblationScheduleTable runs the schedule comparison across the suite.
func AblationScheduleTable(opts Options) (*report.Table, error) {
	t := report.New(
		"Ablation: on-line phase — on-demand LRU vs static Belady schedule (SMI)",
		"Workload", "Cycles (LRU)", "Cycles (plan)", "Transfer cyc (LRU)", "Transfer cyc (plan)",
		"Map-ins (LRU)", "Map-ins (plan)")
	for _, name := range append([]string{workloads.CaseStudyName}, workloads.Names()...) {
		c, err := AblationSchedule(name, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.Workload,
			report.Count(int(c.OnDemandCycles)), report.Count(int(c.ScheduledCycles)),
			report.Count(int(c.OnDemandTransferCycles)), report.Count(int(c.ScheduledTransferCycles)),
			report.Count(int(c.OnDemandMapIns)), report.Count(int(c.ScheduledMapIns)))
	}
	return t, nil
}

// SplitPoint is one D-SPM ECC/parity partition under test.
type SplitPoint struct {
	ECCBytes, ParityBytes int
	Vulnerability         float64
	DynamicEnergyPJ       float64
	Cycles                uint64
}

// AblationRegionSplit sweeps the division of the 4 KB SRAM half of the
// FTSPM data SPM between the ECC and parity regions (the paper fixes
// 2 KB + 2 KB without justification) and evaluates the case study on
// each split, all five in one group.
func AblationRegionSplit(opts Options) ([]SplitPoint, *report.Table, error) {
	opts = opts.normalize()
	const kb = 1024
	splits := [][2]int{{0, 4}, {1, 3}, {2, 2}, {3, 1}, {4, 0}}
	variants := make([]variant, len(splits))
	for i, split := range splits {
		spec := core.MustSpec(core.StructFTSPM)
		spec.DSPM = []spm.RegionConfig{{Kind: spm.RegionSTT, SizeBytes: 12 * kb}}
		spec.DataKinds = []spm.RegionKind{spm.RegionSTT}
		if split[0] > 0 {
			spec.DSPM = append(spec.DSPM, spm.RegionConfig{Kind: spm.RegionECC, SizeBytes: split[0] * kb})
			spec.DataKinds = append(spec.DataKinds, spm.RegionECC)
		}
		if split[1] > 0 {
			spec.DSPM = append(spec.DSPM, spm.RegionConfig{Kind: spm.RegionParity, SizeBytes: split[1] * kb})
			spec.DataKinds = append(spec.DataKinds, spm.RegionParity)
		}
		variants[i] = variant{spec: spec, opts: opts}
	}
	outs, err := evaluateAll(workloads.CaseStudy(), nil, opts.Scale, variants)
	if err != nil {
		return nil, nil, err
	}

	t := report.New(
		"Ablation: ECC/parity split of the 4 KB SRAM share (case study)",
		"ECC", "Parity", "Vulnerability", "Dynamic energy", "Cycles")
	var points []SplitPoint
	for i, split := range splits {
		out := outs[i]
		p := SplitPoint{
			ECCBytes:        split[0] * kb,
			ParityBytes:     split[1] * kb,
			Vulnerability:   out.AVF.Vulnerability(),
			DynamicEnergyPJ: float64(out.Sim.SPMDynamicEnergy),
			Cycles:          uint64(out.Sim.Cycles),
		}
		points = append(points, p)
		t.AddRow(
			fmt.Sprintf("%d KB", split[0]), fmt.Sprintf("%d KB", split[1]),
			report.Float(p.Vulnerability, 4),
			report.Energy(p.DynamicEnergyPJ),
			report.Count(int(p.Cycles)))
	}
	return points, t, nil
}

// AblationPriorities evaluates a workload under each MDA priority and
// reports how the placement and the figures of merit move. On workloads
// whose blocks sit far from every budget (e.g. the case study, where the
// three write-hot blocks are evicted at any threshold) the four rows
// coincide — the budgets only act near their boundaries; basicmath and
// dijkstra are the interesting subjects in this suite.
func AblationPriorities(workloadName string, opts Options) (*report.Table, error) {
	opts = opts.normalize()
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	prios := []core.Priority{
		core.PriorityReliability, core.PriorityPerformance,
		core.PriorityPower, core.PriorityEndurance,
	}
	variants := make([]variant, len(prios))
	for i, prio := range prios {
		o := opts
		o.Priority = prio
		variants[i] = variant{spec: core.MustSpec(core.StructFTSPM), opts: o}
	}
	outs, err := evaluateAll(w, nil, opts.Scale, variants)
	if err != nil {
		return nil, err
	}
	t := report.New(
		"Ablation: MDA multi-priority mapping ("+workloadName+")",
		"Priority", "STT data blocks", "Vulnerability", "Cycles", "Dynamic energy", "Max STT cell writes/s")
	for i, prio := range prios {
		out := outs[i]
		sttBlocks := 0
		for id, kind := range out.Mapping.Placement {
			b, err := w.Program().Block(id)
			if err != nil {
				return nil, err
			}
			if b.Kind.IsData() && kind == spm.RegionSTT {
				sttBlocks++
			}
		}
		t.AddRow(prio.String(),
			report.Count(sttBlocks),
			report.Float(out.AVF.Vulnerability(), 4),
			report.Count(int(out.Sim.Cycles)),
			report.Energy(float64(out.Sim.SPMDynamicEnergy)),
			report.Float(out.STTWriteRate, 0))
	}
	return t, nil
}

// ThresholdPoint is one write-threshold setting under test.
type ThresholdPoint struct {
	WriteFraction float64
	Vulnerability float64
	STTWriteRate  float64
	Cycles        uint64
}

// AblationWriteThreshold sweeps the step 5 write-cycle threshold with
// the other budgets relaxed, exposing the trade the knob controls: a
// loose threshold keeps the write-hot blocks in the immune STT-RAM
// region — the *best* vulnerability — while the hottest cell's write
// rate collapses the structure's lifetime toward the pure STT-RAM
// baseline; tightening deports the writers to the SRAM regions, giving
// up some AVF for orders of magnitude of endurance.
func AblationWriteThreshold(opts Options) ([]ThresholdPoint, *report.Table, error) {
	opts = opts.normalize()
	fracs := []float64{0.0025, 0.01, 0.05, 0.2, 0.35, 0.6}
	variants := make([]variant, len(fracs))
	for i, frac := range fracs {
		o := opts
		o.Thresholds.WriteFraction = frac
		// Isolate step 5: with the default budgets the performance and
		// energy loops (steps 3-4) would deport the write-hot blocks
		// anyway — the MDA's budgets are deliberately redundant for
		// write traffic (an STT write is simultaneously slow, hot, and
		// wearing).
		o.Thresholds.PerfOverhead = 1000
		o.Thresholds.EnergyOverhead = 1000
		o.Thresholds.CellWriteFraction = frac / 10
		variants[i] = variant{spec: core.MustSpec(core.StructFTSPM), opts: o}
	}
	outs, err := evaluateAll(workloads.CaseStudy(), nil, opts.Scale, variants)
	if err != nil {
		return nil, nil, err
	}
	t := report.New(
		"Ablation: step 5 write-cycle threshold, other budgets relaxed (case study)",
		"Write fraction", "Vulnerability", "Max STT cell writes/s", "Cycles")
	var points []ThresholdPoint
	for i, frac := range fracs {
		out := outs[i]
		p := ThresholdPoint{
			WriteFraction: frac,
			Vulnerability: out.AVF.Vulnerability(),
			STTWriteRate:  out.STTWriteRate,
			Cycles:        uint64(out.Sim.Cycles),
		}
		points = append(points, p)
		t.AddRow(report.Pct(frac), report.Float(p.Vulnerability, 4),
			report.Float(p.STTWriteRate, 0), report.Count(int(p.Cycles)))
	}
	return points, t, nil
}

// InterleavePoint compares one code's per-strike outcome rates under the
// 40 nm MBU distribution.
type InterleavePoint struct {
	Code          string
	StorageBits   int // stored bits per 32 data bits
	DRE, DUE, SDC float64
}

// AblationInterleaving quantifies the paper's motivation that "ECCs have
// severe limitations on correcting MBUs": it bombards plain parity,
// plain SEC-DED, and a 2-way-interleaved SEC-DED organization with the
// 40 nm MBU mix and tallies the real decoder outcomes. Interleaving
// turns the 25% 2-bit-cluster mass from DUEs into corrected errors, at
// the cost of 5 extra stored bits per word.
func AblationInterleaving(strikes int, seed int64) ([]InterleavePoint, *report.Table, error) {
	if strikes <= 0 {
		strikes = 50000
	}
	codes := []struct {
		name string
		mk   func() (ecc.Codec, error)
	}{
		{"parity(33,32)", func() (ecc.Codec, error) { return ecc.NewParity(32) }},
		{"hamming(39,32)", func() (ecc.Codec, error) { return ecc.NewHamming(32) }},
		{"interleaved-2x hamming(22,16)", func() (ecc.Codec, error) {
			return ecc.NewInterleaved(2, func() (ecc.Codec, error) { return ecc.NewHamming(16) })
		}},
	}
	t := report.New(
		"Ablation: MBU tolerance of the protection codes (40 nm cluster mix, adjacent-bit strikes)",
		"Code", "Stored bits/word", "DRE (corrected)", "DUE (detected)", "SDC (silent)")
	var points []InterleavePoint
	for _, c := range codes {
		codec, err := c.mk()
		if err != nil {
			return nil, nil, err
		}
		campaign := faults.Campaign{Codec: codec, Dist: faults.Dist40nm, Seed: seed}
		tally, err := campaign.Run(strikes)
		if err != nil {
			return nil, nil, err
		}
		p := InterleavePoint{
			Code:        c.name,
			StorageBits: codec.CodeBits(),
			DRE:         tally.Rate(faults.DRE),
			DUE:         tally.Rate(faults.DUE),
			SDC:         tally.Rate(faults.SDC),
		}
		points = append(points, p)
		t.AddRow(c.name, report.Count(p.StorageBits),
			report.Pct(p.DRE), report.Pct(p.DUE), report.Pct(p.SDC))
	}
	return points, t, nil
}

// ScrubPoint is one scrubbing-interval setting under test.
type ScrubPoint struct {
	// StrikesBetweenScrubs is the scrub interval (0 = never scrub).
	StrikesBetweenScrubs int
	// UncorrectableWords is the final count of words the SEC-DED
	// decoder can no longer repair.
	UncorrectableWords int
	// SilentWords is the final count of silently corrupted words.
	SilentWords int
	// Repairs is the total number of scrub repairs performed.
	Repairs int
}

// AblationScrubbing measures how periodic scrubbing of the ECC region
// keeps independent single-bit upsets from accumulating into
// uncorrectable multi-bit words. It bombards a 2 KB SEC-DED region with
// single-bit strikes (the 62% MBU mass) and compares scrub intervals.
func AblationScrubbing(totalStrikes int, seed int64) ([]ScrubPoint, *report.Table, error) {
	if totalStrikes <= 0 {
		totalStrikes = 2000
	}
	t := report.New(
		"Ablation: periodic scrubbing of the ECC region (single-bit strikes accumulating over time)",
		"Scrub interval (strikes)", "Uncorrectable words", "Silent words", "Scrub repairs")
	var points []ScrubPoint
	for _, interval := range []int{0, 1000, 250, 50} {
		r, err := spm.NewRegion(spm.RegionECC, 2*1024)
		if err != nil {
			return nil, nil, err
		}
		values := make([]uint32, r.Words())
		for i := range values {
			values[i] = dram.Value(uint32(i))
		}
		if _, err := r.Write(0, values); err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		repairs := 0
		for s := 1; s <= totalStrikes; s++ {
			if _, err := r.InjectStrike(rng, rng.Intn(r.Words()), 1); err != nil {
				return nil, nil, err
			}
			if interval > 0 && s%interval == 0 {
				rep, _, _ := r.ScrubWords()
				repairs += rep
			}
		}
		audit := r.Audit()
		p := ScrubPoint{
			StrikesBetweenScrubs: interval,
			UncorrectableWords:   audit.DUE,
			SilentWords:          audit.SDC,
			Repairs:              repairs,
		}
		points = append(points, p)
		label := "never"
		if interval > 0 {
			label = report.Count(interval)
		}
		t.AddRow(label, report.Count(p.UncorrectableWords),
			report.Count(p.SilentWords), report.Count(p.Repairs))
	}
	return points, t, nil
}

// RelatedWorkRow compares one structure in the related-work table.
type RelatedWorkRow struct {
	Structure     core.Structure
	SDCAVF        float64
	DUEAVF        float64
	Reliability   float64
	DynamicPJ     float64
	StaticMJ      float64
	Cycles        uint64
	DataCapacityB int
}

// RelatedWork compares the case study on the three paper structures
// plus the duplication (DMR) comparator of [3], splitting the AVF into
// its SDC and DUE components: duplication eliminates silent corruption
// but converts every upset into a detected-unrecoverable error, halves
// the usable capacity at iso-area (driving blocks off-SPM), and doubles
// the access energy — the "high overheads" the paper's related-work
// section claims, quantified.
func RelatedWork(cs *CaseStudy) ([]RelatedWorkRow, *report.Table) {
	t := report.New(
		"Related-work comparison on the case study: FTSPM vs baselines vs duplication [3]",
		"Structure", "SDC AVF", "DUE AVF", "Reliability", "Dynamic energy",
		"Static energy", "Cycles", "Data capacity")
	var rows []RelatedWorkRow
	for _, s := range core.AllStructures() {
		out := cs.Outcomes[s]
		r := RelatedWorkRow{
			Structure:     s,
			SDCAVF:        out.AVF.SDCAVF,
			DUEAVF:        out.AVF.DUEAVF,
			Reliability:   out.AVF.Reliability(),
			DynamicPJ:     float64(out.Sim.SPMDynamicEnergy),
			StaticMJ:      float64(out.Sim.SPMStaticEnergy),
			Cycles:        uint64(out.Sim.Cycles),
			DataCapacityB: out.Spec.TotalBytes(),
		}
		rows = append(rows, r)
		t.AddRow(s.String(),
			report.Float(r.SDCAVF, 4), report.Float(r.DUEAVF, 4),
			report.Pct(r.Reliability),
			report.Energy(r.DynamicPJ),
			report.Energy(r.StaticMJ*1e9),
			report.Count(int(r.Cycles)),
			fmt.Sprintf("%d KB", r.DataCapacityB/1024))
	}
	return rows, t
}

// RetentionPoint is one retention-time setting of the relaxed-retention
// STT-RAM study.
type RetentionPoint struct {
	// RetentionCycles is how long a cell holds its value before needing
	// a refresh (in core cycles at 1 GHz).
	RetentionCycles float64
	// WriteCycleDelta and WriteEnergyDelta are the savings on program +
	// DMA writes from the faster, cheaper low-retention writes.
	WriteCycleDelta    float64
	WriteEnergyDeltaPJ float64
	// RefreshCyclesTotal and RefreshEnergyPJ are the added refresh
	// costs over the run.
	RefreshCyclesTotal float64
	RefreshEnergyPJ    float64
	// NetCycleDelta and NetEnergyDeltaPJ are savings minus refresh
	// costs (positive = relaxation wins).
	NetCycleDelta    float64
	NetEnergyDeltaPJ float64
}

// Relaxed-retention STT-RAM parameters, after [18] ("When to forget"):
// dropping the retention target from years to milliseconds shrinks the
// magnetic tunnel junction's thermal-stability factor, cutting write
// latency to ~3 cycles and write energy to ~25% — at the price of
// DRAM-style refresh.
const (
	lowRetWriteLatency     = 3.0  // cycles, vs 10 for full-retention
	lowRetWriteEnergyScale = 0.25 // of the full-retention write energy
)

// AblationRetention models replacing FTSPM's STT-RAM regions with
// relaxed-retention STT-RAM: it takes the measured full-retention run
// (write word counts, live words, execution time) and computes, for a
// sweep of retention times, the write savings against the refresh tax.
// The crossover shows where [18]'s idea pays off for this workload.
func AblationRetention(workloadName string, opts Options) ([]RetentionPoint, *report.Table, error) {
	opts = opts.normalize()
	out, err := EvaluateByName(workloadName, core.StructFTSPM, opts)
	if err != nil {
		return nil, nil, err
	}
	stt := out.Sim.DataRegionStats[spm.RegionSTT]
	sttBank, err := memtech.EstimateBank(memtech.STTRAM, memtech.Unprotected, 12*1024)
	if err != nil {
		return nil, nil, err
	}
	writeWords := float64(stt.WordsWritten)
	execCycles := float64(out.Sim.Cycles)

	// Live words needing refresh: the words of the STT-mapped data
	// blocks (occupied SPM space holds live data between uses).
	liveWords := 0.0
	for id, kind := range out.Mapping.Placement {
		if kind != spm.RegionSTT {
			continue
		}
		bp := out.Profile.Blocks[id]
		if bp.Block.Kind.IsData() {
			liveWords += float64(memtech.WordsIn(bp.Block.Size))
		}
	}

	writeCycleSave := writeWords * (10 - lowRetWriteLatency)
	writeEnergySave := writeWords * float64(sttBank.WriteEnergy) * (1 - lowRetWriteEnergyScale)

	t := report.New(
		fmt.Sprintf("Extension [18]: relaxed-retention STT-RAM for FTSPM's data region (%s)", workloadName),
		"Retention", "Refresh energy", "Refresh cycles", "Write savings (pJ)", "Net energy delta", "Net cycle delta")
	var points []RetentionPoint
	for _, retention := range []float64{1e4, 1e5, 1e6, 1e7, 1e8} { // 10us .. 100ms at 1 GHz
		refreshes := execCycles / retention
		refreshEnergy := refreshes * liveWords * float64(sttBank.WriteEnergy) * lowRetWriteEnergyScale
		refreshCycles := refreshes * (lowRetWriteLatency + liveWords - 1) // pipelined burst rewrite
		p := RetentionPoint{
			RetentionCycles:    retention,
			WriteCycleDelta:    writeCycleSave,
			WriteEnergyDeltaPJ: writeEnergySave,
			RefreshCyclesTotal: refreshCycles,
			RefreshEnergyPJ:    refreshEnergy,
			NetCycleDelta:      writeCycleSave - refreshCycles,
			NetEnergyDeltaPJ:   writeEnergySave - refreshEnergy,
		}
		points = append(points, p)
		t.AddRow(
			fmt.Sprintf("%.0e cyc", retention),
			report.Energy(p.RefreshEnergyPJ),
			report.Count(int(p.RefreshCyclesTotal)),
			report.Energy(p.WriteEnergyDeltaPJ),
			report.Energy(p.NetEnergyDeltaPJ),
			report.Count(int(p.NetCycleDelta)))
	}
	return points, t, nil
}

// GranularityPoint compares coarse (whole-block) and fine (refined)
// mapping units on one workload.
type GranularityPoint struct {
	Label string
	// UnmappedBytes counts data+code bytes left off-SPM. Unmapped data
	// lives in the unprotected L1 cache — outside the SPM AVF metric
	// (the paper ignores cache vulnerability too) but physically exposed
	// to strikes with no code at all, which is what fine granularity
	// eliminates in a safety-critical deployment.
	UnmappedBytes  int
	Cycles         uint64
	SPMDynamicPJ   float64
	TotalDynamicPJ float64
	Vulnerability  float64
}

// refineOversized returns a program in which every block too large for
// the region that might need to host it is split into equal word-aligned
// parts that fit: code blocks against the I-SPM, data blocks against the
// largest eviction-target (SRAM) region, so write-hot blocks always have
// somewhere to be deported to. Trace addresses keep resolving — Refine
// tiles the parent's range.
func refineOversized(prog *program.Program, spec core.Spec) (*program.Program, error) {
	out := prog
	for _, b := range prog.Blocks() {
		limit := spec.ISPMBytes()
		if b.Kind.IsData() {
			limit = 0
			for _, kind := range spec.DataKinds[1:] {
				if n := spec.DataRegionBytes(kind); n > limit {
					limit = n
				}
			}
			if limit == 0 {
				for _, kind := range spec.DataKinds {
					if n := spec.DataRegionBytes(kind); n > limit {
						limit = n
					}
				}
			}
		}
		if limit <= 0 || b.Size <= limit {
			continue
		}
		parts := (b.Size + limit - 1) / limit
		refined, err := out.Refine(b.Name, parts)
		if err != nil {
			return nil, err
		}
		out = refined
	}
	return out, nil
}

// AblationGranularity contrasts whole-block mapping with refined
// (fine-grained, [15]) mapping units on one workload. Refinement always
// eliminates the off-SPM (unprotected-cache) bytes; whether it also wins
// on energy depends on transfer amortization versus cache behaviour —
// the tests record a negative energy result for the case study's
// streaming Main and for matmul's cache-friendly output tile, which is
// precisely why Algorithm 1's size check plus an L1 backstop is a
// defensible design for non-critical data, and why a safety-critical
// deployment (where unprotected residency is unacceptable) pays the
// refinement tax.
func AblationGranularity(workloadName string, opts Options) ([]GranularityPoint, *report.Table, error) {
	opts = opts.normalize()
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return nil, nil, err
	}
	spec := core.MustSpec(core.StructFTSPM)

	// Each program is its own group: a refined program profiles into
	// different blocks.
	evalOn := func(label string, prog *program.Program) (GranularityPoint, error) {
		outs, err := evaluateAll(w, prog, opts.Scale, []variant{{spec: spec, opts: opts}})
		if err != nil {
			return GranularityPoint{}, err
		}
		out := outs[0]
		unmapped := 0
		for _, b := range prog.Blocks() {
			if _, ok := out.Mapping.Placement[b.ID]; !ok {
				unmapped += b.Size
			}
		}
		return GranularityPoint{
			Label:          label,
			UnmappedBytes:  unmapped,
			Cycles:         uint64(out.Sim.Cycles),
			SPMDynamicPJ:   float64(out.Sim.SPMDynamicEnergy),
			TotalDynamicPJ: float64(out.Sim.TotalDynamicEnergy()),
			Vulnerability:  out.AVF.Vulnerability(),
		}, nil
	}

	coarse, err := evalOn("coarse (whole blocks)", w.Program())
	if err != nil {
		return nil, nil, err
	}
	refined, err := refineOversized(w.Program(), spec)
	if err != nil {
		return nil, nil, err
	}
	fine, err := evalOn("fine (oversized blocks split)", refined)
	if err != nil {
		return nil, nil, err
	}

	t := report.New(
		fmt.Sprintf("Ablation [15]: block granularity (%s)", workloadName),
		"Granularity", "Unmapped bytes", "Cycles", "SPM dynamic", "Total dynamic", "Vulnerability")
	points := []GranularityPoint{coarse, fine}
	for _, p := range points {
		t.AddRow(p.Label, report.Count(p.UnmappedBytes), report.Count(int(p.Cycles)),
			report.Energy(p.SPMDynamicPJ), report.Energy(p.TotalDynamicPJ),
			report.Float(p.Vulnerability, 4))
	}
	return points, t, nil
}

// ValidationRow is one structure's empirical fault-injection outcome.
type ValidationRow struct {
	Structure core.Structure
	// Strikes landed on the data SPM during execution.
	Strikes uint64
	// CorrectedReads, DetectedReads, SilentReads classify the reads that
	// met corrupted words (DRE / DUE / SDC consumed by the program).
	CorrectedReads, DetectedReads, SilentReads uint64
	// AnalyticVulnerability is the AVF model's prediction.
	AnalyticVulnerability float64
}

// ConsumedErrors returns the architecturally visible error events
// (detected + silent), the empirical counterpart of eq. (1)'s SDC+DUE.
func (r ValidationRow) ConsumedErrors() uint64 { return r.DetectedReads + r.SilentReads }

// ValidateAVF validates the analytic reliability model end to end: it
// executes the same workload on each structure while landing particle
// strikes on the data SPM (40 nm cluster mix), and tallies, through the
// real codecs, the corrupted words the program actually consumed. The
// pure STT-RAM structure must consume zero; FTSPM must consume several
// times fewer than the pure SRAM baseline — the empirical face of the
// paper's 7x claim.
func ValidateAVF(workloadName string, strikesPerAccess float64, seed int64,
	opts Options) ([]ValidationRow, *report.Table, error) {
	opts = opts.normalize()
	if strikesPerAccess <= 0 {
		strikesPerAccess = 0.02
	}
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return nil, nil, err
	}
	structures := core.Structures()
	variants := make([]variant, len(structures))
	for i, s := range structures {
		variants[i] = variant{spec: core.MustSpec(s), opts: opts, injection: &sim.InjectionConfig{
			StrikesPerAccess: strikesPerAccess,
			Dist:             faults.Dist40nm,
			Seed:             seed,
		}}
	}
	outs, err := evaluateAll(w, nil, opts.Scale, variants)
	if err != nil {
		return nil, nil, err
	}

	t := report.New(
		fmt.Sprintf("Validation: live fault injection vs the analytic AVF model (%s, %.3f strikes/access)",
			workloadName, strikesPerAccess),
		"Structure", "Strikes", "Corrected (DRE)", "Detected (DUE)", "Silent (SDC)", "Analytic vulnerability")
	var rows []ValidationRow
	for i, s := range structures {
		out := outs[i]
		row := ValidationRow{
			Structure:             s,
			Strikes:               out.Sim.InjectedStrikes,
			AnalyticVulnerability: out.AVF.Vulnerability(),
		}
		for _, st := range out.Sim.DataRegionStats {
			row.CorrectedReads += st.CorrectedErrors
			row.DetectedReads += st.DetectedErrors
			row.SilentReads += st.SilentReads
		}
		rows = append(rows, row)
		t.AddRow(s.String(),
			report.Count(int(row.Strikes)),
			report.Count(int(row.CorrectedReads)),
			report.Count(int(row.DetectedReads)),
			report.Count(int(row.SilentReads)),
			report.Float(row.AnalyticVulnerability, 4))
	}
	return rows, t, nil
}

// NodePoint is one technology node's vulnerability comparison.
type NodePoint struct {
	Node         string
	BaselineVuln float64
	FTSPMVuln    float64
	Improvement  float64
	ECCWeight    float64 // P(2)+P(>=3): the SEC-DED escape probability
}

// AblationTechNode sweeps the MBU multiplicity distribution across
// technology nodes (65 nm down to 16 nm, after the trend of [6]) and
// recomputes the Fig. 5 comparison at each: as the multi-bit tail grows,
// the SEC-DED baseline's escape probability rises while FTSPM's immune
// STT-RAM region is unaffected — the paper's "down scaling" motivation,
// extrapolated forward.
func AblationTechNode(workloadName string, opts Options) ([]NodePoint, *report.Table, error) {
	opts = opts.normalize()
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return nil, nil, err
	}
	prof, err := profile.Run(w.Program(), w.TraceStream(opts.Scale))
	if err != nil {
		return nil, nil, err
	}
	spec := core.MustSpec(core.StructFTSPM)
	mapping, err := core.MapBlocks(prof, spec, opts.Thresholds, opts.Priority)
	if err != nil {
		return nil, nil, err
	}
	baseSpec := core.MustSpec(core.StructPureSRAM)
	baseMapping, err := core.MapBlocks(prof, baseSpec, opts.Thresholds, opts.Priority)
	if err != nil {
		return nil, nil, err
	}

	t := report.New(
		fmt.Sprintf("Extension: vulnerability vs technology node (%s; MBU tail after [6])", workloadName),
		"Node", "P(multi-bit)", "Pure SRAM", "FTSPM", "Improvement")
	var points []NodePoint
	for _, node := range faults.TechNodes() {
		ft, err := avf.Compute(prof, mapping.Placement, node.Dist, spec.DSPMBytes(), avf.ModePerBlock)
		if err != nil {
			return nil, nil, err
		}
		base, err := avf.Compute(prof, baseMapping.Placement, node.Dist, baseSpec.DSPMBytes(), avf.ModeUniform)
		if err != nil {
			return nil, nil, err
		}
		p := NodePoint{
			Node:         node.Name,
			BaselineVuln: base.Vulnerability(),
			FTSPMVuln:    ft.Vulnerability(),
			Improvement:  base.Vulnerability() / ft.Vulnerability(),
			ECCWeight:    node.Dist.PAtLeast(2),
		}
		points = append(points, p)
		t.AddRow(p.Node, report.Pct(p.ECCWeight),
			report.Float(p.BaselineVuln, 4), report.Float(p.FTSPMVuln, 4),
			report.Float(p.Improvement, 1)+"x")
	}
	return points, t, nil
}
