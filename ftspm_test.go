package ftspm_test

import (
	"errors"
	"fmt"
	"testing"

	"ftspm"
	"ftspm/internal/core"
)

func TestFacadeWorkloads(t *testing.T) {
	names := ftspm.Workloads()
	if len(names) != 13 {
		t.Fatalf("Workloads() = %d names, want 13 (case study + suite)", len(names))
	}
	if names[0] != "casestudy" {
		t.Errorf("first workload = %q", names[0])
	}
}

func TestFacadeEvaluate(t *testing.T) {
	out, err := ftspm.Evaluate("crc32", ftspm.FTSPM, ftspm.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if out.Workload != "crc32" || out.Structure != ftspm.FTSPM {
		t.Errorf("identity = %s/%v", out.Workload, out.Structure)
	}
	if out.Sim.Cycles == 0 || out.AVF.Reliability() <= 0 {
		t.Error("empty outcome")
	}
	if _, err := ftspm.Evaluate("nope", ftspm.FTSPM, ftspm.Options{}); err == nil {
		t.Error("unknown workload accepted")
	}
	// The DMR comparator is reachable through the facade too.
	dmr, err := ftspm.Evaluate("crc32", ftspm.DMR, ftspm.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if dmr.AVF.SDCAVF != 0 {
		t.Error("DMR produced silent corruption mass")
	}
}

func TestFacadeRunSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	sw, err := ftspm.RunSweep(ftspm.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Workloads) != 12 {
		t.Errorf("sweep covered %d workloads", len(sw.Workloads))
	}
}

// TestFacadeRunSweepFirstFailure: the facade turns a campaign whose
// jobs fail into the first failed job's error, never a partial sweep.
// Thresholds the MDA rejects fail every job at mapping time.
func TestFacadeRunSweepFirstFailure(t *testing.T) {
	bad := core.DefaultThresholds()
	bad.PerfOverhead = -1
	sw, err := ftspm.RunSweep(ftspm.Options{Scale: 0.02, Thresholds: bad})
	if !errors.Is(err, core.ErrBadThresholds) {
		t.Fatalf("err = %v, want the first job's wrapped core.ErrBadThresholds", err)
	}
	if sw != nil {
		t.Error("a failed sweep returned a partial sweep")
	}
}

// ExampleEvaluate demonstrates the one-call pipeline: profile the
// workload, run the Mapping Determiner Algorithm for the hybrid
// structure, simulate, and read off the reliability result.
func ExampleEvaluate() {
	out, err := ftspm.Evaluate("casestudy", ftspm.FTSPM, ftspm.Options{Scale: 0.1})
	if err != nil {
		panic(err)
	}
	d, _ := out.Mapping.Decision("Stack")
	fmt.Println(out.Workload, "stack region:", d.Target)
	fmt.Println("more reliable than the 62% baseline:", out.AVF.Reliability() > 0.62)
	// Output:
	// casestudy stack region: SRAM(parity)
	// more reliable than the 62% baseline: true
}
