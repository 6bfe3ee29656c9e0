package core

import (
	"errors"
	"testing"

	"ftspm/internal/memtech"
	"ftspm/internal/profile"
	"ftspm/internal/program"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

func TestStructureSpecsTableIV(t *testing.T) {
	ftspm := MustSpec(StructFTSPM)
	if ftspm.ISPMBytes() != 16*1024 || ftspm.DSPMBytes() != 16*1024 {
		t.Errorf("FTSPM SPM sizes = %d/%d", ftspm.ISPMBytes(), ftspm.DSPMBytes())
	}
	if ftspm.DataRegionBytes(spm.RegionSTT) != 12*1024 ||
		ftspm.DataRegionBytes(spm.RegionECC) != 2*1024 ||
		ftspm.DataRegionBytes(spm.RegionParity) != 2*1024 {
		t.Error("FTSPM data regions do not match Table IV")
	}
	if ftspm.ExtraLeakage != memtech.HybridControllerLeakage {
		t.Error("FTSPM missing controller leakage")
	}
	if ftspm.TotalBytes() != 32*1024 {
		t.Errorf("TotalBytes = %d", ftspm.TotalBytes())
	}

	sram := MustSpec(StructPureSRAM)
	if sram.DataRegionBytes(spm.RegionECC) != 16*1024 || len(sram.DSPM) != 1 {
		t.Error("pure SRAM structure wrong")
	}
	stt := MustSpec(StructPureSTT)
	if stt.DataRegionBytes(spm.RegionSTT) != 16*1024 || stt.ExtraLeakage != 0 {
		t.Error("pure STT structure wrong")
	}
	if stt.DataRegionBytes(spm.RegionParity) != 0 {
		t.Error("phantom parity region")
	}

	if _, err := NewSpec(Structure(0)); !errors.Is(err, ErrUnknownStructure) {
		t.Error("bad structure accepted")
	}
	if len(Structures()) != 3 {
		t.Error("Structures() wrong")
	}
	for _, s := range Structures() {
		if !s.Valid() || s.String() == "" {
			t.Errorf("structure %d invalid", s)
		}
	}
	if Structure(9).String() != "Structure(9)" || Structure(9).Valid() {
		t.Error("unknown structure helpers")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSpec did not panic")
		}
	}()
	MustSpec(Structure(99))
}

func TestStructureLeakagePaperValues(t *testing.T) {
	// Section V: 15.8 / 3.0 / 7.1 mW.
	tests := []struct {
		s    Structure
		want float64
	}{
		{StructPureSRAM, 15.8},
		{StructPureSTT, 3.0},
		{StructFTSPM, 7.1},
	}
	for _, tt := range tests {
		spec := MustSpec(tt.s)
		leak, err := spec.Leakage()
		if err != nil {
			t.Fatal(err)
		}
		got := float64(leak)
		if got < tt.want*0.98 || got > tt.want*1.02 {
			t.Errorf("%v leakage = %.2f mW, want ~%.1f", tt.s, got, tt.want)
		}
	}
}

func caseStudyProfile(t *testing.T) *profile.Profile {
	t.Helper()
	w := workloads.CaseStudy()
	prof, err := profile.Run(w.Program(), w.Trace(0.25))
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestMDAReproducesTableII(t *testing.T) {
	// The headline correctness check: Algorithm 1 on the case-study
	// profile must reproduce the Table II placement —
	//   Main   unmapped (exceeds I-SPM)
	//   Mul    I-SPM (STT-RAM)
	//   Add    I-SPM (STT-RAM)
	//   Array1 SRAM(ECC)     Array2 STT-RAM
	//   Array3 SRAM(ECC)     Array4 STT-RAM
	//   Stack  SRAM(parity)
	prof := caseStudyProfile(t)
	m, err := MapBlocks(prof, MustSpec(StructFTSPM), DefaultThresholds(), PriorityReliability)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]struct {
		mapped bool
		kind   spm.RegionKind
	}{
		"Main":   {false, 0},
		"Mul":    {true, spm.RegionSTT},
		"Add":    {true, spm.RegionSTT},
		"Array1": {true, spm.RegionECC},
		"Array2": {true, spm.RegionSTT},
		"Array3": {true, spm.RegionECC},
		"Array4": {true, spm.RegionSTT},
		"Stack":  {true, spm.RegionParity},
	}
	for name, w := range want {
		d, ok := m.Decision(name)
		if !ok {
			t.Fatalf("no decision for %s", name)
		}
		if d.Mapped != w.mapped {
			t.Errorf("%s: mapped = %v (%s), want %v", name, d.Mapped, d.Reason, w.mapped)
			continue
		}
		if w.mapped && d.Target != w.kind {
			t.Errorf("%s: target = %v (%s), want %v", name, d.Target, d.Reason, w.kind)
		}
	}
	if len(m.Placement) != 7 {
		t.Errorf("placement has %d blocks, want 7", len(m.Placement))
	}
	// The write-hot blocks must carry eviction records.
	for _, name := range []string{"Array1", "Array3", "Stack"} {
		d, _ := m.Decision(name)
		if !d.Evicted {
			t.Errorf("%s not marked evicted (%s)", name, d.Reason)
		}
	}
	if m.AvgEvictedSusceptibility <= 0 {
		t.Error("no average evicted susceptibility")
	}
	if m.EstPerfOverhead < 0 || m.EstPerfOverhead > 0.25 {
		t.Errorf("final perf overhead estimate = %v", m.EstPerfOverhead)
	}
}

func TestMDABaselinesMapEverythingFitting(t *testing.T) {
	prof := caseStudyProfile(t)
	for _, s := range []Structure{StructPureSRAM, StructPureSTT} {
		m, err := MapBlocks(prof, MustSpec(s), DefaultThresholds(), PriorityReliability)
		if err != nil {
			t.Fatal(err)
		}
		kind := MustSpec(s).DataKinds[0]
		// All blocks except the oversized Main map to the single kind.
		for _, d := range m.Decisions {
			if d.Block.Name == "Main" {
				if d.Mapped {
					t.Errorf("%v: Main mapped", s)
				}
				continue
			}
			if !d.Mapped || d.Target != kind {
				t.Errorf("%v: %s -> %v mapped=%v", s, d.Block.Name, d.Target, d.Mapped)
			}
			if d.Evicted {
				t.Errorf("%v: baseline evicted %s", s, d.Block.Name)
			}
		}
	}
}

func TestMDAPriorityEnduranceEvictsMore(t *testing.T) {
	prof := caseStudyProfile(t)
	spec := MustSpec(StructFTSPM)
	rel, err := MapBlocks(prof, spec, DefaultThresholds(), PriorityReliability)
	if err != nil {
		t.Fatal(err)
	}
	end, err := MapBlocks(prof, spec, DefaultThresholds(), PriorityEndurance)
	if err != nil {
		t.Fatal(err)
	}
	sttCount := func(m Mapping) int {
		n := 0
		for id, k := range m.Placement {
			b, err := prof.Program().Block(id)
			if err != nil {
				t.Fatal(err)
			}
			if b.Kind.IsData() && k == spm.RegionSTT {
				n++
			}
		}
		return n
	}
	if sttCount(end) > sttCount(rel) {
		t.Errorf("endurance priority kept more STT blocks (%d) than reliability (%d)",
			sttCount(end), sttCount(rel))
	}
	if end.WriteThresholdWords >= rel.WriteThresholdWords {
		t.Error("endurance priority did not tighten the write threshold")
	}
}

func TestMDAPriorityPerformanceTightens(t *testing.T) {
	th := DefaultThresholds()
	perf := th.ForPriority(PriorityPerformance)
	if perf.PerfOverhead >= th.PerfOverhead {
		t.Error("performance priority did not tighten the budget")
	}
	power := th.ForPriority(PriorityPower)
	if power.EnergyOverhead >= th.EnergyOverhead {
		t.Error("power priority did not tighten the budget")
	}
	if th.ForPriority(PriorityReliability) != th {
		t.Error("reliability priority changed the budgets")
	}
}

func TestMDAInputValidation(t *testing.T) {
	prof := caseStudyProfile(t)
	spec := MustSpec(StructFTSPM)
	if _, err := MapBlocks(nil, spec, DefaultThresholds(), PriorityReliability); !errors.Is(err, ErrNilProfile) {
		t.Error("nil profile accepted")
	}
	if _, err := MapBlocks(prof, spec, Thresholds{}, PriorityReliability); !errors.Is(err, ErrBadThresholds) {
		t.Error("zero thresholds accepted")
	}
	if _, err := MapBlocks(prof, spec, DefaultThresholds(), Priority(0)); !errors.Is(err, ErrBadPriority) {
		t.Error("bad priority accepted")
	}
	for _, p := range []Priority{PriorityReliability, PriorityPerformance, PriorityPower, PriorityEndurance} {
		if !p.Valid() || p.String() == "" {
			t.Errorf("priority %d helpers wrong", p)
		}
	}
	if Priority(9).String() != "Priority(9)" {
		t.Error("unknown priority stringer")
	}
}

func TestMDASuiteMappingsAreControllable(t *testing.T) {
	// Every suite workload must produce a placement that the controller
	// accepts (no block bigger than its target region) and that keeps
	// write-hot traffic out of STT-RAM.
	for _, w := range workloads.Suite() {
		prof, err := profile.Run(w.Program(), w.Trace(0.1))
		if err != nil {
			t.Fatal(err)
		}
		m, err := MapBlocks(prof, MustSpec(StructFTSPM), DefaultThresholds(), PriorityReliability)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		spec := MustSpec(StructFTSPM)
		for id, kind := range m.Placement {
			b, err := prof.Program().Block(id)
			if err != nil {
				t.Fatal(err)
			}
			var regionBytes int
			if b.Kind.IsData() {
				regionBytes = spec.DataRegionBytes(kind)
			} else {
				regionBytes = spec.ISPMBytes()
			}
			if b.Size > regionBytes {
				t.Errorf("%s: %s (%d B) into %v (%d B)", w.Name, b.Name, b.Size, kind, regionBytes)
			}
		}
		// STT write share must respect the endurance threshold: any
		// STT-resident data block over the volume threshold must be
		// write-sparse (the streaming-buffer exemption), and no block
		// may concentrate writes on a hot cell.
		totalWrites := 0.0
		for _, bp := range prof.DataBlocks() {
			totalWrites += float64(bp.WriteWords)
		}
		for id, kind := range m.Placement {
			b, err := prof.Program().Block(id)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Kind.IsData() || kind != spm.RegionSTT {
				continue
			}
			bp := prof.Blocks[id]
			ownShare := float64(bp.WriteWords) / float64(bp.ReadWords+bp.WriteWords+1)
			if float64(bp.WriteWords) > m.WriteThresholdWords && ownShare > 0.02 {
				t.Errorf("%s: write-dense STT block %s exceeds write threshold", w.Name, b.Name)
			}
			if float64(bp.MaxWordWrites) > 0.001*totalWrites {
				t.Errorf("%s: STT block %s concentrates writes (%d on one cell)",
					w.Name, b.Name, bp.MaxWordWrites)
			}
		}
	}
}

func TestCostModelOverheads(t *testing.T) {
	// Hand-checkable overhead estimation: one block with known word
	// counts in each region.
	spec := MustSpec(StructFTSPM)
	cm, err := newCostModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := program.New("cm")
	id := p.MustAddBlock("B", program.DataBlock, 1024)
	addr, err := p.AddrOf(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 100 reads + 50 writes, one word each, no think: exec = 150 cycles.
	var evs []trace.Event
	for i := 0; i < 100; i++ {
		evs = append(evs, trace.AccessEvent(trace.Access{Op: trace.Read, Space: trace.Data, Addr: addr, Size: 4}))
	}
	for i := 0; i < 50; i++ {
		evs = append(evs, trace.AccessEvent(trace.Access{Op: trace.Write, Space: trace.Data, Addr: addr, Size: 4}))
	}
	prof, err := profile.Run(p, trace.NewSliceStream(evs))
	if err != nil {
		t.Fatal(err)
	}

	// In STT-RAM: reads cost the ideal 1 cycle, writes 9 extra each:
	// overhead = 50*9 / 150 = 3.0.
	perf, energy := cm.overheads(prof, map[program.BlockID]spm.RegionKind{id: spm.RegionSTT}, prof.ExecCycles)
	if perf < 2.9 || perf > 3.1 {
		t.Errorf("STT perf overhead = %v, want ~3.0", perf)
	}
	if energy <= 0 {
		t.Errorf("STT energy overhead = %v, want > 0 (2 nJ writes)", energy)
	}

	// In the ideal (parity) region both overheads vanish.
	perf, energy = cm.overheads(prof, map[program.BlockID]spm.RegionKind{id: spm.RegionParity}, prof.ExecCycles)
	if perf != 0 || energy != 0 {
		t.Errorf("parity overheads = %v/%v, want 0/0", perf, energy)
	}

	// Unassigned blocks are charged at the ideal kind.
	perf, energy = cm.overheads(prof, map[program.BlockID]spm.RegionKind{}, prof.ExecCycles)
	if perf != 0 || energy != 0 {
		t.Errorf("unassigned overheads = %v/%v, want 0/0", perf, energy)
	}

	// Zero execution time guards division.
	perf, energy = cm.overheads(prof, nil, 0)
	if perf != 0 || energy != 0 {
		t.Error("zero-exec overheads not 0")
	}

	// ECC costs one extra cycle per word in both directions:
	// overhead = 150*1 / 150 = 1.0.
	perf, _ = cm.overheads(prof, map[program.BlockID]spm.RegionKind{id: spm.RegionECC}, prof.ExecCycles)
	if perf < 0.9 || perf > 1.1 {
		t.Errorf("ECC perf overhead = %v, want ~1.0", perf)
	}
}

func TestParseStructure(t *testing.T) {
	cases := map[string]Structure{
		"ftspm": StructFTSPM, "FTSPM": StructFTSPM,
		"sram": StructPureSRAM, "pure-sram": StructPureSRAM, "pure-SRAM": StructPureSRAM,
		"stt": StructPureSTT, "stt-ram": StructPureSTT, "pure-stt": StructPureSTT,
		"dmr": StructDMR, "duplication": StructDMR, " sram ": StructPureSRAM,
	}
	// Every canonical name the reports print parses back.
	for _, s := range AllStructures() {
		cases[s.String()] = s
	}
	for name, want := range cases {
		got, err := ParseStructure(name)
		if err != nil || got != want {
			t.Errorf("ParseStructure(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"quantum", "dram", "all", ""} {
		if _, err := ParseStructure(bad); !errors.Is(err, ErrUnknownStructure) {
			t.Errorf("ParseStructure(%q): %v, want ErrUnknownStructure", bad, err)
		}
	}
}

func TestParsePriority(t *testing.T) {
	cases := map[string]Priority{
		"reliability": PriorityReliability,
		"performance": PriorityPerformance,
		"power":       PriorityPower,
		"Endurance":   PriorityEndurance,
	}
	for in, want := range cases {
		got, err := ParsePriority(in)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePriority("speed"); !errors.Is(err, ErrBadPriority) {
		t.Errorf("ParsePriority(speed): %v, want ErrBadPriority", err)
	}
}
