package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"ftspm/internal/core"
	"ftspm/internal/workloads"
)

// TestEvaluateContextCanceledReturnsPromptly pins the satellite
// requirement that a canceled evaluate stops the work, not just the
// caller: with a pre-canceled context the full pipeline must return a
// context error quickly instead of profiling and simulating the whole
// trace.
func TestEvaluateContextCanceledReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := EvaluateByNameContext(ctx, workloads.CaseStudyName, core.StructFTSPM, Options{Scale: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	// The periodic check fires within a few thousand trace events;
	// generous bound so slow CI machines never flake.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled evaluate took %v, want prompt return", elapsed)
	}
}

// TestEvaluateContextDeadlineStopsMidPipeline drives a live deadline
// into the pipeline: a deadline far shorter than the full-scale run
// must surface context.DeadlineExceeded from whichever stage (profile
// or simulate) it lands in.
func TestEvaluateContextDeadlineStopsMidPipeline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := EvaluateByNameContext(ctx, workloads.CaseStudyName, core.StructFTSPM, Options{Scale: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-exceeded evaluate took %v, want prompt return", elapsed)
	}
}

// TestEvaluateBackgroundUnchanged guards against drift: an evaluation
// under the background context matches one under a live, cancellable
// context bit-for-bit on the headline accounting.
func TestEvaluateBackgroundUnchanged(t *testing.T) {
	a, err := EvaluateByNameContext(context.Background(), workloads.CaseStudyName, core.StructFTSPM, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b, err := EvaluateByNameContext(ctx, workloads.CaseStudyName, core.StructFTSPM, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sim.Cycles != b.Sim.Cycles || a.Sim.Accesses != b.Sim.Accesses ||
		a.AVF.Vulnerability() != b.AVF.Vulnerability() {
		t.Fatalf("cancellable evaluation drifted from background: %+v vs %+v", b.Sim, a.Sim)
	}
}
