package simd_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ftspm/internal/core"
	"ftspm/internal/faults"
	"ftspm/internal/profile"
	"ftspm/internal/sim"
	"ftspm/internal/simd"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// buildConfig maps the case study onto a structure and returns the
// simulator config plus the trace, mirroring what the soak runner does.
func buildConfig(t testing.TB, s core.Structure, scale float64) (sim.Config, []trace.Event, *workloads.Workload) {
	t.Helper()
	w, err := workloads.ByName(workloads.CaseStudyName)
	if err != nil {
		t.Fatal(err)
	}
	events := w.TraceEvents(scale)
	prof, err := profile.Run(w.Program(), trace.Replay(events))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := core.NewSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := core.MapBlocks(prof, spec, core.DefaultThresholds(), core.PriorityReliability)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.SimConfig(mapping.Placement)
	rec := spm.DefaultRecovery()
	cfg.Recovery = &rec
	return cfg, events, &w
}

func buildEngine(t *testing.T, p float64) (*simd.Skeleton, *simd.Engine) {
	t.Helper()
	cfg, events, w := buildConfig(t, core.StructFTSPM, 0.02)
	sk, err := simd.BuildSkeleton(context.Background(), w.Program(), cfg, events)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := simd.NewEngine(sk, simd.Injection{
		StrikesPerAccess: p,
		Dist:             faults.Dist40nm,
		Target:           sim.TargetBothSPMs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sk, eng
}

// TestBuildSkeletonRejectsWear pins the fallback gate: a wear model
// forks per-trial control flow, so recording must refuse up front, and
// so must a storm or adaptive recovery, each under its own cause.
func TestBuildSkeletonRejectsWear(t *testing.T) {
	ad := spm.DefaultAdaptive()
	for _, tc := range []struct {
		name  string
		set   func(*sim.Config)
		cause error
	}{
		{"wear", func(c *sim.Config) {
			c.Wear = &spm.WearConfig{WriteFailProb: 0.01, MaxWriteRetries: 2}
		}, simd.ErrWear},
		{"storm", func(c *sim.Config) {
			c.Injection = &sim.InjectionConfig{Dist: faults.Dist40nm, Storm: &faults.StormConfig{}}
		}, simd.ErrStorm},
		{"adaptive", func(c *sim.Config) {
			c.Recovery = &spm.RecoveryConfig{Adaptive: &ad}
		}, simd.ErrAdaptive},
	} {
		cfg, events, w := buildConfig(t, core.StructFTSPM, 0.02)
		tc.set(&cfg)
		_, err := simd.BuildSkeleton(context.Background(), w.Program(), cfg, events)
		if !errors.Is(err, simd.ErrUnsupported) || !errors.Is(err, tc.cause) {
			t.Fatalf("BuildSkeleton with %s: got %v, want %v", tc.name, err, tc.cause)
		}
	}
}

// TestRunBatchValidation covers the lane-count contract.
func TestRunBatchValidation(t *testing.T) {
	_, eng := buildEngine(t, 0.02)
	out := make([]simd.TrialResult, simd.MaxLanes+1)
	if err := eng.RunBatch(context.Background(), nil, out); err == nil {
		t.Error("RunBatch with zero seeds succeeded")
	}
	seeds := make([]int64, simd.MaxLanes+1)
	if err := eng.RunBatch(context.Background(), seeds, out); err == nil {
		t.Errorf("RunBatch with %d lanes succeeded", len(seeds))
	}
	if err := eng.RunBatch(context.Background(), seeds[:4], out[:3]); err == nil {
		t.Error("RunBatch with short result slice succeeded")
	}
}

// TestRunBatchCancellation: a cancelled context aborts the batch with
// the scalar simulator's sentinel.
func TestRunBatchCancellation(t *testing.T) {
	_, eng := buildEngine(t, 0.02)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := make([]simd.TrialResult, 2)
	err := eng.RunBatch(ctx, []int64{1, 2}, out)
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("cancelled RunBatch: got %v, want sim.ErrCanceled", err)
	}
}

// TestRunBatchDeterministic: the same seeds give the same results on a
// reused engine, and distinct seeds give distinct strike streams.
func TestRunBatchDeterministic(t *testing.T) {
	_, eng := buildEngine(t, 0.05)
	seeds := []int64{7, 1_000_010, 2_000_013, 3_000_016}
	a := make([]simd.TrialResult, len(seeds))
	b := make([]simd.TrialResult, len(seeds))
	if err := eng.RunBatch(context.Background(), seeds, a); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunBatch(context.Background(), seeds, b); err != nil {
		t.Fatal(err)
	}
	for l := range seeds {
		if a[l] != b[l] {
			t.Errorf("lane %d not reproducible:\nfirst:  %+v\nsecond: %+v", l, a[l], b[l])
		}
	}
	distinct := false
	for l := 1; l < len(seeds); l++ {
		if a[l].Strikes != a[0].Strikes {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all lanes drew identical strike counts; seeds look ignored")
	}
}

// TestRunBatchSteadyStateAllocs: RunBatch must not allocate, even for
// seeds no earlier batch planned: every measured batch draws fresh
// seeds, so a schedule that outgrew its build-time size would show.
func TestRunBatchSteadyStateAllocs(t *testing.T) {
	_, eng := buildEngine(t, 0.05)
	seeds := make([]int64, simd.MaxLanes)
	out := make([]simd.TrialResult, simd.MaxLanes)
	next := int64(1)
	allocs := testing.AllocsPerRun(3, func() {
		for l := range seeds {
			seeds[l] = next
			next += 1_000_003
		}
		if err := eng.RunBatch(context.Background(), seeds, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RunBatch allocates %.1f times per batch, want 0", allocs)
	}
}

// BenchmarkRunBatch times one full packed batch, strike planning
// included, per structure at the soak's defaults: 64 lanes at p = 0.01
// striking the data SPM, rollback recovery, the case study at scale
// 0.05. Every batch draws fresh seeds.
func BenchmarkRunBatch(b *testing.B) {
	for _, s := range []struct {
		name string
		s    core.Structure
	}{
		{"FTSPM", core.StructFTSPM},
		{"PureSRAM", core.StructPureSRAM},
		{"PureSTT", core.StructPureSTT},
	} {
		b.Run(s.name, func(b *testing.B) {
			cfg, events, w := buildConfig(b, s.s, 0.05)
			sk, err := simd.BuildSkeleton(context.Background(), w.Program(), cfg, events)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := simd.NewEngine(sk, simd.Injection{
				StrikesPerAccess: 0.01,
				Dist:             faults.Dist40nm,
			})
			if err != nil {
				b.Fatal(err)
			}
			seeds := make([]int64, simd.MaxLanes)
			out := make([]simd.TrialResult, simd.MaxLanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := range seeds {
					seeds[l] = int64(i*simd.MaxLanes + l + 1)
				}
				if err := eng.RunBatch(context.Background(), seeds, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSkeletonAccesses: the recorded access count matches the trace's
// access-event count, which is what the strike planner iterates over.
func TestSkeletonAccesses(t *testing.T) {
	sk, _ := buildEngine(t, 0)
	if sk.Accesses() == 0 {
		t.Fatal("skeleton recorded zero accesses")
	}
	cfg, events, w := buildConfig(t, core.StructFTSPM, 0.02)
	m, err := sim.New(w.Program(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunContext(context.Background(), trace.Replay(events))
	if err != nil {
		t.Fatal(err)
	}
	if sk.Accesses() != res.Accesses {
		t.Errorf("skeleton accesses %d, scalar run %d", sk.Accesses(), res.Accesses)
	}
}

// TestNewEngineValidatesInjection mirrors the scalar simulator's
// injection validation.
func TestNewEngineValidatesInjection(t *testing.T) {
	sk, _ := buildEngine(t, 0)
	_, err := simd.NewEngine(sk, simd.Injection{
		StrikesPerAccess: 0.01, Dist: faults.Dist40nm, Target: sim.InjectionTarget(99),
	})
	if err == nil || !strings.Contains(err.Error(), "target") {
		t.Errorf("bad target: got %v, want target validation error", err)
	}
	_, err = simd.NewEngine(sk, simd.Injection{StrikesPerAccess: 0.01})
	if err == nil {
		t.Error("zero-value distribution with strikes enabled passed validation")
	}
}
