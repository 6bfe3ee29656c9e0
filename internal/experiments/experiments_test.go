package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"ftspm/internal/core"
)

// testOpts keeps full-suite sweeps fast in the unit-test run; the bench
// harness uses DefaultOptions.
var testOpts = Options{Scale: 0.1}

var (
	sweepOnce sync.Once
	sweepVal  *Sweep
	sweepErr  error
)

var (
	caseStudyOnce sync.Once
	caseStudyVal  *CaseStudy
	caseStudyErr  error
)

// runSweep runs the sweep in process, failing with the first failed
// job's error as the root facade's RunSweep does.
func runSweep(opts Options) (*Sweep, error) {
	sw, status, err := RunSweepOn(context.Background(), opts, CampaignConfig{}.RunLocal)
	if err != nil {
		return nil, err
	}
	if f := status.FirstFailure(); f != nil {
		return nil, f
	}
	return sw, nil
}

// runSoak soaks opts.Structure in process, failing with the first
// failed trial's error.
func runSoak(opts SoakOptions) (*SoakReport, error) {
	reps, status, err := RunSoakOn(context.Background(), opts, nil, CampaignConfig{}.RunLocal)
	if err != nil {
		return nil, err
	}
	if f := status.FirstFailure(); f != nil {
		return nil, f
	}
	return reps[0], nil
}

// testCaseStudy evaluates the case study once per test binary.
func testCaseStudy(t *testing.T) *CaseStudy {
	t.Helper()
	caseStudyOnce.Do(func() {
		caseStudyVal, caseStudyErr = RunCaseStudy(testOpts)
	})
	if caseStudyErr != nil {
		t.Fatal(caseStudyErr)
	}
	return caseStudyVal
}

// testSweep computes the suite sweep once per test binary.
func testSweep(t *testing.T) *Sweep {
	t.Helper()
	sweepOnce.Do(func() {
		sweepVal, sweepErr = runSweep(testOpts)
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepVal
}

func TestOptionsNormalize(t *testing.T) {
	n := Options{}.normalize()
	def := DefaultOptions()
	if n.Scale != def.Scale || n.Thresholds != def.Thresholds || n.Priority != def.Priority {
		t.Errorf("normalize() = %+v", n)
	}
	keep := Options{Scale: 0.5, Thresholds: core.DefaultThresholds(), Priority: core.PriorityPower}
	if keep.normalize() != keep {
		t.Error("normalize clobbered explicit options")
	}
}

func TestEvaluateByNameUnknown(t *testing.T) {
	ctx := context.Background()
	if _, err := EvaluateByNameContext(ctx, "nope", core.StructFTSPM, testOpts); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := EvaluateByNameContext(ctx, "sha", core.Structure(0), testOpts); err == nil {
		t.Error("unknown structure accepted")
	}
}

func TestSweepShape(t *testing.T) {
	sw := testSweep(t)
	if len(sw.Workloads) != 12 || len(sw.Outcomes) != 12 {
		t.Fatalf("sweep shape: %d workloads", len(sw.Workloads))
	}
	for i, row := range sw.Outcomes {
		if len(row) != 3 {
			t.Fatalf("row %d has %d structures", i, len(row))
		}
	}
	if _, err := sw.Get("sha", core.StructFTSPM); err != nil {
		t.Error(err)
	}
	if _, err := sw.Get("nope", core.StructFTSPM); err == nil {
		t.Error("phantom workload resolved")
	}
}

func TestHeadlineVulnerability(t *testing.T) {
	// Fig. 5: the pure SRAM baseline is ~7x more vulnerable than FTSPM
	// (geometric mean over the suite), and the baseline is flat at 0.38.
	sw := testSweep(t)
	_, sum, err := Fig5(sw)
	if err != nil {
		t.Fatal(err)
	}
	if sum.GeoMeanRatio < 4 || sum.GeoMeanRatio > 15 {
		t.Errorf("vulnerability improvement = %.1fx, want ~7x (paper)", sum.GeoMeanRatio)
	}
	for _, name := range sw.Workloads {
		sram, err := sw.Get(name, core.StructPureSRAM)
		if err != nil {
			t.Fatal(err)
		}
		if v := sram.AVF.Vulnerability(); v < 0.379 || v > 0.381 {
			t.Errorf("%s: baseline vulnerability = %v, want flat 0.38", name, v)
		}
		ft, err := sw.Get(name, core.StructFTSPM)
		if err != nil {
			t.Fatal(err)
		}
		if ft.AVF.Vulnerability() >= sram.AVF.Vulnerability() {
			t.Errorf("%s: FTSPM not less vulnerable", name)
		}
		stt, err := sw.Get(name, core.StructPureSTT)
		if err != nil {
			t.Fatal(err)
		}
		if stt.AVF.Vulnerability() != 0 {
			t.Errorf("%s: pure STT-RAM vulnerability = %v, want 0", name, stt.AVF.Vulnerability())
		}
	}
}

func TestHeadlineDynamicEnergy(t *testing.T) {
	// Fig. 7: FTSPM dynamic energy ~47% below pure SRAM and well below
	// pure STT-RAM (paper: 77% below; our suite is more read-dominated,
	// see EXPERIMENTS.md).
	sw := testSweep(t)
	_, vsSRAM, vsSTT, err := Fig7(sw)
	if err != nil {
		t.Fatal(err)
	}
	if vsSRAM < 0.35 || vsSRAM > 0.65 {
		t.Errorf("FTSPM/SRAM dynamic = %.2f, want ~0.53", vsSRAM)
	}
	if vsSTT > 0.55 {
		t.Errorf("FTSPM/STT dynamic = %.2f, want well below 1 (paper 0.23)", vsSTT)
	}
}

func TestHeadlineStaticEnergy(t *testing.T) {
	// Fig. 6: FTSPM static energy roughly half the pure SRAM SPM's;
	// pure STT-RAM lowest.
	sw := testSweep(t)
	_, vsSRAM, vsSTT, err := Fig6(sw)
	if err != nil {
		t.Fatal(err)
	}
	if vsSRAM < 0.30 || vsSRAM > 0.60 {
		t.Errorf("FTSPM/SRAM static = %.2f, want ~0.45-0.55", vsSRAM)
	}
	if vsSTT < 1 {
		t.Errorf("FTSPM/STT static = %.2f; pure STT-RAM must leak least", vsSTT)
	}
}

func TestHeadlinePerformance(t *testing.T) {
	// Section V: FTSPM performance overhead vs pure SRAM is negligible.
	sw := testSweep(t)
	_, ratio, err := PerfOverhead(sw)
	if err != nil {
		t.Fatal(err)
	}
	if ratio > 1.02 {
		t.Errorf("FTSPM/SRAM cycles = %.3f, want < 1.02 (paper: <1%% overhead)", ratio)
	}
}

func TestHeadlineEndurance(t *testing.T) {
	// Fig. 8: FTSPM extends STT-RAM lifetime by orders of magnitude on
	// every workload that wears STT-RAM at all.
	sw := testSweep(t)
	_, sum, err := Fig8(sw)
	if err != nil {
		t.Fatal(err)
	}
	if sum.GeoMeanRatio < 10 {
		t.Errorf("endurance improvement geo-mean = %.0fx, want >> 1", sum.GeoMeanRatio)
	}
	for i, r := range sum.Ratios {
		if r < 1 {
			t.Errorf("%s: FTSPM wears STT-RAM faster than the baseline (%.2fx)", sw.Workloads[i], r)
		}
	}
}

func TestCaseStudyScalars(t *testing.T) {
	// Section IV: reliability 86% vs 62%; dynamic energy 44% lower;
	// static 56% lower; negligible performance overhead.
	study, err := RunCaseStudy(Options{Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	cs := SectionIV(study)
	if cs.ReliabilityBaseline < 0.619 || cs.ReliabilityBaseline > 0.621 {
		t.Errorf("baseline reliability = %.3f, want 0.62", cs.ReliabilityBaseline)
	}
	if cs.ReliabilityFTSPM < 0.82 || cs.ReliabilityFTSPM > 0.95 {
		t.Errorf("FTSPM reliability = %.3f, want ~0.86-0.9", cs.ReliabilityFTSPM)
	}
	if cs.DynamicVsSRAM > 0.7 {
		t.Errorf("dynamic ratio = %.2f, want < 0.7 (paper 0.56)", cs.DynamicVsSRAM)
	}
	if cs.StaticVsSRAM < 0.30 || cs.StaticVsSRAM > 0.60 {
		t.Errorf("static ratio = %.2f, want ~0.44", cs.StaticVsSRAM)
	}
	if cs.PerfOverheadVsSRAM > 0.03 {
		t.Errorf("perf overhead = %.3f, want < 3%%", cs.PerfOverheadVsSRAM)
	}
}

func TestTableIRenders(t *testing.T) {
	tb := TableI(testCaseStudy(t))
	out := tb.String()
	for _, name := range []string{"Main", "Mul", "Add", "Array1", "Array4", "Stack"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table I missing %s", name)
		}
	}
}

func TestTableIIRenders(t *testing.T) {
	tb := TableII(testCaseStudy(t))
	// Each block's row must land in the Table II region.
	wants := map[string]string{
		"Main":   "-",
		"Mul":    "STT-RAM",
		"Add":    "STT-RAM",
		"Array1": "SRAM(ECC)",
		"Array2": "STT-RAM",
		"Array3": "SRAM(ECC)",
		"Array4": "STT-RAM",
		"Stack":  "SRAM(parity)",
	}
	for _, line := range strings.Split(tb.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		if want, ok := wants[fields[0]]; ok {
			if fields[2] != want {
				t.Errorf("%s -> %s, want %s", fields[0], fields[2], want)
			}
			delete(wants, fields[0])
		}
	}
	if len(wants) > 0 {
		t.Errorf("Table II missing rows for %v:\n%s", wants, tb.String())
	}
}

func TestTableIIIImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length trace")
	}
	res, tb := TableIII(testCaseStudy(t))
	// Paper: ~3 orders of magnitude (40 min -> 61 days is ~2200x).
	if res.Improvement() < 200 {
		t.Errorf("endurance improvement = %.0fx, want hundreds-to-thousands", res.Improvement())
	}
	if res.BaselineRate <= res.FTSPMRate {
		t.Error("baseline must wear faster")
	}
	if len(res.Rows) != 5 || !strings.Contains(tb.String(), "1e+12") {
		t.Errorf("Table III malformed:\n%s", tb.String())
	}
}

func TestTableIVAndFig3Render(t *testing.T) {
	tb, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"FTSPM", "pure-SRAM", "pure-STT-RAM", "12 KB", "2 KB", "16 KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table IV missing %q", want)
		}
	}
	f3, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f3.String(), "STT-RAM") || !strings.Contains(f3.String(), "pJ") {
		t.Error("Fig. 3 malformed")
	}
}

func TestFig2SharesSumToOne(t *testing.T) {
	tb := Fig2(testCaseStudy(t))
	if len(tb.Rows) != 3 {
		t.Fatalf("Fig. 2 rows = %d, want 3 regions", len(tb.Rows))
	}
	// The STT region must dominate reads and the SRAM regions the
	// writes — the core of the paper's Fig. 2 story.
	if !strings.Contains(tb.String(), "STT-RAM") {
		t.Error("missing STT row")
	}
}

func TestFig4CoversSuite(t *testing.T) {
	sw := testSweep(t)
	tb, err := Fig4(sw)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, name := range sw.Workloads {
		if !strings.Contains(out, name) {
			t.Errorf("Fig. 4 missing %s", name)
		}
	}
}

func TestSummarizeJSON(t *testing.T) {
	sw := testSweep(t)
	s, err := Summarize(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Runs) != 36 {
		t.Fatalf("runs = %d, want 36", len(s.Runs))
	}
	if s.Headlines.VulnerabilityImprovement < 4 {
		t.Error("headline missing")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Summary
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(decoded.Runs) != 36 || decoded.Headlines.PerfVsSRAM == 0 {
		t.Error("JSON roundtrip lost data")
	}
	for _, r := range decoded.Runs {
		if _, err := core.ParseStructure(r.Structure); err != nil {
			t.Errorf("structure string %q: %v", r.Structure, err)
		}
		if r.Cycles == 0 || r.Workload == "" {
			t.Error("empty run record")
		}
	}
}
