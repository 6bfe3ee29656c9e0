package experiments

import (
	"strings"
	"testing"

	"ftspm/internal/core"
)

func TestAblationScheduleReducesTransfers(t *testing.T) {
	// The statically planned schedule (Belady evictions) must never
	// cause more transfer traffic than the on-demand LRU controller.
	for _, name := range []string{"casestudy", "fft", "jpeg"} {
		c, err := AblationSchedule(name, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		if c.ScheduledMapIns > c.OnDemandMapIns {
			t.Errorf("%s: plan performed more map-ins (%d) than LRU (%d)",
				name, c.ScheduledMapIns, c.OnDemandMapIns)
		}
		if c.ScheduledTransferCycles > c.OnDemandTransferCycles {
			t.Errorf("%s: plan spent more transfer cycles (%d) than LRU (%d)",
				name, c.ScheduledTransferCycles, c.OnDemandTransferCycles)
		}
		if c.PlannedLoads == 0 {
			t.Errorf("%s: empty plan", name)
		}
	}
}

func TestAblationScheduleTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite double runs")
	}
	tb, err := AblationScheduleTable(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 13 {
		t.Errorf("rows = %d, want 13", len(tb.Rows))
	}
}

func TestAblationRegionSplitTradeoff(t *testing.T) {
	points, tb, err := AblationRegionSplit(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 || len(tb.Rows) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	// All-parity (0 KB ECC) must be the most vulnerable split: every
	// evicted block sits under the weakest protection.
	allParity := points[0]
	for _, p := range points[1:] {
		if p.ECCBytes > 0 && p.Vulnerability > allParity.Vulnerability+1e-9 {
			t.Errorf("split %d/%d more vulnerable (%.4f) than all-parity (%.4f)",
				p.ECCBytes, p.ParityBytes, p.Vulnerability, allParity.Vulnerability)
		}
	}
}

func TestAblationPriorities(t *testing.T) {
	tb, err := AblationPriorities("basicmath", testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	out := tb.String()
	for _, p := range []string{"reliability", "performance", "power", "endurance"} {
		if !strings.Contains(out, p) {
			t.Errorf("missing priority %s", p)
		}
	}
}

func TestAblationWriteThresholdMonotone(t *testing.T) {
	points, tb, err := AblationWriteThreshold(testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 || len(tb.Rows) != len(points) {
		t.Fatalf("points = %d", len(points))
	}
	// Loosening the threshold keeps more write traffic in STT-RAM: the
	// hottest-cell rate must be non-decreasing in the fraction, and the
	// loosest setting must wear STT-RAM far faster than the tightest
	// (the endurance the knob exists to protect).
	// (Allow slack: keeping more blocks in STT-RAM also slows execution,
	// which can shave the per-second rate even as per-cell counts rise.)
	for i := 1; i < len(points); i++ {
		if points[i].STTWriteRate < 0.8*points[i-1].STTWriteRate {
			t.Errorf("STT write rate fell from %.0f to %.0f when loosening %.4f -> %.4f",
				points[i-1].STTWriteRate, points[i].STTWriteRate,
				points[i-1].WriteFraction, points[i].WriteFraction)
		}
	}
	first, last := points[0], points[len(points)-1]
	if last.STTWriteRate < 10*first.STTWriteRate {
		t.Errorf("loosest threshold rate %.0f not far above tightest %.0f",
			last.STTWriteRate, first.STTWriteRate)
	}
	// With everything kept in the immune region, the loosest setting has
	// the best vulnerability.
	if last.Vulnerability > first.Vulnerability {
		t.Errorf("loosest vulnerability %.4f worse than tightest %.4f",
			last.Vulnerability, first.Vulnerability)
	}
}

func TestAblationInterleavingShape(t *testing.T) {
	points, tb, err := AblationInterleaving(30000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 || len(tb.Rows) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	parity, plain, inter := points[0], points[1], points[2]
	// Parity corrects nothing; SEC-DED corrects the 62% singles;
	// interleaving additionally corrects the 25% adjacent doubles.
	if parity.DRE != 0 {
		t.Error("parity corrected something")
	}
	if plain.DRE < 0.58 || plain.DRE > 0.66 {
		t.Errorf("plain SEC-DED DRE = %.3f, want ~0.62", plain.DRE)
	}
	if inter.DRE < plain.DRE+0.2 {
		t.Errorf("interleaving DRE = %.3f, want >> plain %.3f (doubles corrected)",
			inter.DRE, plain.DRE)
	}
	if inter.SDC > plain.SDC {
		t.Errorf("interleaving increased SDC: %.4f > %.4f", inter.SDC, plain.SDC)
	}
	if inter.StorageBits != 44 || plain.StorageBits != 39 || parity.StorageBits != 33 {
		t.Error("storage accounting wrong")
	}
	_ = tb
}

func TestAblationInterleavingDefaults(t *testing.T) {
	// Non-positive strike count falls back to the default.
	points, _, err := AblationInterleaving(0, 1)
	if err != nil || len(points) != 3 {
		t.Fatalf("default run failed: %v", err)
	}
}

func TestAblationScrubbingReducesAccumulation(t *testing.T) {
	points, tb, err := AblationScrubbing(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 || len(tb.Rows) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	never := points[0]
	if never.StrikesBetweenScrubs != 0 || never.Repairs != 0 {
		t.Fatal("first point must be the no-scrub baseline")
	}
	if never.UncorrectableWords == 0 {
		t.Error("no accumulated uncorrectable words without scrubbing")
	}
	// Tighter scrub intervals leave fewer uncorrectable words.
	for _, p := range points[1:] {
		if p.Repairs == 0 {
			t.Errorf("interval %d performed no repairs", p.StrikesBetweenScrubs)
		}
		if p.UncorrectableWords > never.UncorrectableWords {
			t.Errorf("scrubbing every %d strikes increased DUEs (%d > %d)",
				p.StrikesBetweenScrubs, p.UncorrectableWords, never.UncorrectableWords)
		}
	}
	tightest := points[len(points)-1]
	if tightest.UncorrectableWords >= never.UncorrectableWords {
		t.Errorf("tight scrubbing did not reduce DUEs: %d vs %d",
			tightest.UncorrectableWords, never.UncorrectableWords)
	}
}

func TestRelatedWorkComparison(t *testing.T) {
	rows, tb := RelatedWork(testCaseStudy(t))
	if len(rows) != 4 || len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 structures", len(rows))
	}
	byStruct := map[core.Structure]RelatedWorkRow{}
	for _, r := range rows {
		byStruct[r.Structure] = r
	}
	dmr := byStruct[core.StructDMR]
	sram := byStruct[core.StructPureSRAM]
	ft := byStruct[core.StructFTSPM]
	// Duplication: zero silent corruption, but everything becomes DUE.
	if dmr.SDCAVF != 0 {
		t.Errorf("DMR SDC AVF = %v, want 0", dmr.SDCAVF)
	}
	if dmr.DUEAVF <= sram.DUEAVF {
		t.Errorf("DMR DUE AVF (%v) must exceed the ECC baseline's (%v)", dmr.DUEAVF, sram.DUEAVF)
	}
	// Duplication halves the capacity at iso-area.
	if dmr.DataCapacityB != 16*1024 {
		t.Errorf("DMR capacity = %d, want 16 KB", dmr.DataCapacityB)
	}
	// The doubled cells cost power ("high overheads in terms of power
	// and die size" [3]): DMR leaks more than twice the per-KB rate of
	// the plain baseline and burns more dynamic energy per access; at
	// half the data capacity its total dynamic energy must exceed the
	// full-size ECC baseline's.
	if dmr.DynamicPJ <= sram.DynamicPJ {
		t.Errorf("DMR dynamic energy (%v) should exceed the ECC baseline (%v)",
			dmr.DynamicPJ, sram.DynamicPJ)
	}
	// FTSPM beats duplication on overall vulnerability (eq. 1).
	if ft.SDCAVF+ft.DUEAVF >= dmr.SDCAVF+dmr.DUEAVF {
		t.Error("FTSPM should have lower total vulnerability than DMR")
	}
}

func TestAblationRetentionCrossover(t *testing.T) {
	points, tb, err := AblationRetention("sha", testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 || len(tb.Rows) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	// Refresh cost must fall monotonically as retention lengthens, and
	// the write savings are retention-independent.
	for i := 1; i < len(points); i++ {
		if points[i].RefreshEnergyPJ >= points[i-1].RefreshEnergyPJ {
			t.Error("refresh energy not decreasing with retention")
		}
		if points[i].WriteEnergyDeltaPJ != points[0].WriteEnergyDeltaPJ {
			t.Error("write savings changed with retention")
		}
	}
	// At very short retention the refresh tax must dominate (net loss);
	// at the longest retention the relaxation must win on energy.
	if points[0].NetEnergyDeltaPJ >= 0 {
		t.Errorf("10us retention should lose: net %.0f pJ", points[0].NetEnergyDeltaPJ)
	}
	last := points[len(points)-1]
	if last.NetEnergyDeltaPJ <= 0 {
		t.Errorf("100ms retention should win: net %.0f pJ", last.NetEnergyDeltaPJ)
	}
}

func TestAblationGranularityCaseStudyNegativeResult(t *testing.T) {
	// The honest finding on the case study: splitting the 20 KB Main so
	// it fits the I-SPM eliminates the unmapped bytes, but a large
	// streaming code block is better served by the 8 KB I-cache than by
	// DMA-ing 10 KB halves into STT-RAM (each transfer writes thousands
	// of expensive STT cells) — granularity alone is not a win; it needs
	// transfer-aware placement. The mapping check of Algorithm 1 line 2,
	// which leaves Main unmapped, is vindicated.
	points, tb, err := AblationGranularity("casestudy", testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || len(tb.Rows) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	coarse, fine := points[0], points[1]
	if coarse.UnmappedBytes < 20*1024 {
		t.Errorf("coarse unmapped = %d, want >= 20 KB (Main)", coarse.UnmappedBytes)
	}
	if fine.UnmappedBytes != 0 {
		t.Errorf("fine unmapped = %d, want 0", fine.UnmappedBytes)
	}
	if fine.TotalDynamicPJ <= coarse.TotalDynamicPJ {
		t.Errorf("expected the negative result: fine %.0f should exceed coarse %.0f",
			fine.TotalDynamicPJ, coarse.TotalDynamicPJ)
	}
}

func TestAblationGranularityMatmulProtectsOutput(t *testing.T) {
	// matmul's 4 KB write-hot output tile fits no SRAM region whole, so
	// the coarse mapping leaves it off-SPM — resident in the completely
	// unprotected L1 D-cache. Split in half it lives under ECC/parity
	// protection. The energy price of that protection (DMA time-sharing
	// of the 2 KB ECC region vs a cache the whole tile fits in) is real
	// and bounded; a safety-critical deployment pays it.
	points, _, err := AblationGranularity("matmul", testOpts)
	if err != nil {
		t.Fatal(err)
	}
	coarse, fine := points[0], points[1]
	if coarse.UnmappedBytes < 4*1024 {
		t.Errorf("coarse unmapped = %d, want >= 4 KB (Out)", coarse.UnmappedBytes)
	}
	if fine.UnmappedBytes != 0 {
		t.Errorf("fine unmapped = %d, want 0 (output now under SPM protection)", fine.UnmappedBytes)
	}
	if fine.TotalDynamicPJ > 5*coarse.TotalDynamicPJ {
		t.Errorf("protection tax implausibly high: fine %.0f vs coarse %.0f",
			fine.TotalDynamicPJ, coarse.TotalDynamicPJ)
	}
}

func TestAblationTechNodeTrend(t *testing.T) {
	points, tb, err := AblationTechNode("casestudy", testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 || len(tb.Rows) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// The baseline's vulnerability must grow monotonically as the node
	// shrinks (the paper's motivation), while FTSPM stays far below it
	// at every node.
	for i, p := range points {
		if i > 0 && p.BaselineVuln <= points[i-1].BaselineVuln {
			t.Errorf("%s: baseline vulnerability %.4f not above previous %.4f",
				p.Node, p.BaselineVuln, points[i-1].BaselineVuln)
		}
		if p.Improvement < 2 {
			t.Errorf("%s: improvement only %.1fx", p.Node, p.Improvement)
		}
	}
}
