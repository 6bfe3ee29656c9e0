package experiments

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
)

// runSoakBothPaths runs the same campaign through the packed engine
// (Lanes auto) and the scalar simulator (Lanes 1) on a pool of workers
// (0: the default) and returns both report sets.
func runSoakBothPaths(t *testing.T, opts SoakOptions, structures []core.Structure, workers int) (packed, scalar []*SoakReport) {
	t.Helper()
	cc := CampaignConfig{Workers: workers}
	opts.Lanes = 0
	packed, status, err := RunSoakCampaign(context.Background(), opts, structures, cc)
	if err != nil {
		t.Fatalf("packed campaign: %v", err)
	}
	if f := status.FirstFailure(); f != nil {
		t.Fatalf("packed campaign trial failed: %v", f)
	}
	opts.Lanes = 1
	scalar, status, err = RunSoakCampaign(context.Background(), opts, structures, cc)
	if err != nil {
		t.Fatalf("scalar campaign: %v", err)
	}
	if f := status.FirstFailure(); f != nil {
		t.Fatalf("scalar campaign trial failed: %v", f)
	}
	return packed, scalar
}

// TestSoakLaneEquivalence is the packed engine's correctness contract:
// for every structure, recovery policy, and injection target, the
// per-structure soak reports of the packed path must equal the scalar
// simulator's exactly — same strike streams, same recovery tallies,
// same end-of-run audit, cycle for cycle. Summed over all cases, every
// recovery outcome must occur, so no branch of the policy or of the
// lane arithmetic passes untested.
func TestSoakLaneEquivalence(t *testing.T) {
	allStructs := []core.Structure{
		core.StructFTSPM, core.StructPureSRAM, core.StructPureSTT, core.StructDMR,
	}
	rollback := spm.DefaultRecovery()
	sdc := rollback
	sdc.DirtyPolicy = spm.DUEAsSDC
	fastScrub := rollback
	fastScrub.ScrubInterval = 512
	noScrub := rollback
	noScrub.ScrubInterval = 0

	cases := []struct {
		name       string
		opts       SoakOptions
		structures []core.Structure
	}{
		{
			name: "default-recovery-all-structures",
			opts: SoakOptions{
				Trials: 4, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 1,
				Recovery: &rollback,
			},
			structures: allStructs,
		},
		{
			name: "dirty-due-as-sdc",
			opts: SoakOptions{
				Trials: 3, Scale: 0.02, StrikesPerAccess: 0.03, Seed: 9,
				Recovery: &sdc,
			},
			structures: []core.Structure{core.StructFTSPM, core.StructPureSRAM},
		},
		{
			name: "fast-scrub-both-spms",
			opts: SoakOptions{
				Trials: 3, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 3,
				Target: sim.TargetBothSPMs, Recovery: &fastScrub,
			},
			structures: []core.Structure{core.StructFTSPM, core.StructDMR},
		},
		{
			name: "inst-spm-no-scrub",
			opts: SoakOptions{
				Trials: 3, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 11,
				Target: sim.TargetInstSPM, Recovery: &noScrub,
			},
			structures: []core.Structure{core.StructPureSRAM},
		},
		{
			name: "detection-only-no-recovery",
			opts: SoakOptions{
				Trials: 3, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 17,
			},
			structures: []core.Structure{core.StructFTSPM, core.StructPureSRAM},
		},
		{
			// Dense strikes on both SPMs: many lanes fault one word,
			// and the packed engine's strike heap meets ties at one
			// access.
			name: "dense-both-spms-sdc",
			opts: SoakOptions{
				Trials: 64, Scale: 0.02, StrikesPerAccess: 0.05, Seed: 31,
				Target: sim.TargetBothSPMs, Recovery: &sdc,
			},
			structures: []core.Structure{core.StructFTSPM, core.StructPureSRAM},
		},
		{
			name: "no-strikes",
			opts: SoakOptions{
				Trials: 2, Scale: 0.02, Seed: 23, Recovery: &rollback,
			},
			structures: []core.Structure{core.StructFTSPM},
		},
	}
	var (
		mu  sync.Mutex
		ran int
		sum spm.RecoveryStats
	)
	t.Cleanup(func() {
		if ran < len(cases) {
			return // a -run filter skipped cases; the sums are partial
		}
		for _, c := range []struct {
			name string
			n    uint64
		}{
			{"CorrectedOnAccess", sum.CorrectedOnAccess},
			{"RefetchedWords", sum.RefetchedWords},
			{"Rollbacks", sum.Rollbacks},
			{"SDCEscalations", sum.SDCEscalations},
			{"UnrecoveredDUEs", sum.UnrecoveredDUEs},
			{"ScrubRepairs", sum.ScrubRepairs},
			{"ScrubRefetches", sum.ScrubRefetches},
			{"ScrubRestores", sum.ScrubRestores},
			{"ScrubDUEs", sum.ScrubDUEs},
		} {
			if c.n == 0 {
				t.Errorf("%s is zero over all cases: that outcome is never compared", c.name)
			}
		}
	})
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			packed, scalar := runSoakBothPaths(t, tc.opts, tc.structures, 0)
			for i, s := range tc.structures {
				if !reflect.DeepEqual(packed[i], scalar[i]) {
					t.Errorf("%v: packed and scalar reports diverge:\npacked: %+v\nscalar: %+v",
						s, *packed[i], *scalar[i])
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ran++
			for _, rep := range scalar {
				sum.Add(rep.Recovery)
			}
		})
	}
}

// TestSoakLaneEquivalencePartialBatch covers trial counts that do not
// fill a lane word and an explicit narrow lane width (two batches).
func TestSoakLaneEquivalencePartialBatch(t *testing.T) {
	rec := spm.DefaultRecovery()
	opts := SoakOptions{
		Trials: 5, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 29,
		Recovery: &rec, Lanes: 3,
	}
	structures := []core.Structure{core.StructFTSPM}
	narrow, status, err := RunSoakCampaign(context.Background(), opts, structures, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if f := status.FirstFailure(); f != nil {
		t.Fatal(f)
	}
	opts.Lanes = 1
	scalar, status, err := RunSoakCampaign(context.Background(), opts, structures, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if f := status.FirstFailure(); f != nil {
		t.Fatal(f)
	}
	if !reflect.DeepEqual(narrow[0], scalar[0]) {
		t.Errorf("3-lane and scalar reports diverge:\nlanes=3: %+v\nscalar:  %+v", *narrow[0], *scalar[0])
	}
}

// TestSoakWearFallsBackToScalar pins the fallback gate: a wear model
// forks per-trial control flow, so the packed path must decline and the
// campaign must still produce the scalar result.
func TestSoakWearFallsBackToScalar(t *testing.T) {
	rec := spm.DefaultRecovery()
	rec.RemapThreshold = 1
	wear := &spm.WearConfig{WriteFailProb: 0.05, MaxWriteRetries: 2, StuckAtProb: 0.02}
	opts := SoakOptions{
		Structure: core.StructFTSPM, Trials: 2, Scale: 0.02, Seed: 7,
		StrikesPerAccess: 0.01, Recovery: &rec, Wear: wear,
	}
	opts.Lanes = 0
	auto, err := runSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Lanes = 1
	scalar, err := runSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto, scalar) {
		t.Errorf("wear campaign diverged between lane settings:\nauto:   %+v\nscalar: %+v", *auto, *scalar)
	}
	if auto.Recovery.StuckWordEvents == 0 {
		t.Error("wear model inactive; fallback test is vacuous")
	}
}

// TestSoakWearFallbackCounted pins the wear half of the fallback
// counter: each structure's packed path declines a wear model once, no
// matter how many of its trials run or how many workers help with its
// batches, a forced-scalar campaign (Lanes 1) declines nothing, and
// every decline is counted under wear alone.
func TestSoakWearFallbackCounted(t *testing.T) {
	opts := SoakOptions{
		Trials: 3, Scale: 0.02, Seed: 7, StrikesPerAccess: 0.01,
		Wear: &spm.WearConfig{WriteFailProb: 0.05, MaxWriteRetries: 2, StuckAtProb: 0.02},
	}
	structures := []core.Structure{core.StructFTSPM, core.StructPureSRAM, core.StructPureSTT}
	for _, workers := range []int{0, 4} {
		before, beforeTotal := ScalarFallbacks(), ScalarFallbackCount()
		runSoakBothPaths(t, opts, structures, workers)
		if got := ScalarFallbackCount() - beforeTotal; got != uint64(len(structures)) {
			t.Errorf("workers=%d: wear soak over %d structures counted %d scalar fallbacks, want %d",
				workers, len(structures), got, len(structures))
		}
		want := FallbackCounts{Wear: uint64(len(structures))}
		if got := fallbacksSince(before); got != want {
			t.Errorf("workers=%d: wear soak fallbacks by cause = %+v, want %+v", workers, got, want)
		}
	}
}

// fallbacksSince returns the scalar fallbacks counted since before,
// by cause.
func fallbacksSince(before FallbackCounts) FallbackCounts {
	now := ScalarFallbacks()
	return FallbackCounts{
		Wear:         now.Wear - before.Wear,
		Storm:        now.Storm - before.Storm,
		Adaptive:     now.Adaptive - before.Adaptive,
		WideCodeword: now.WideCodeword - before.WideCodeword,
		Other:        now.Other - before.Other,
	}
}

// TestLaneWidth pins the knob resolution: auto packs fully and explicit
// widths are taken as given. Values outside 0..64 are usage errors, from
// SoakSource too, never clamped to a width.
func TestLaneWidth(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 64}, {1, 1}, {3, 3}, {64, 64},
	} {
		if err := (SoakOptions{Lanes: tc.in}).Validate(); err != nil {
			t.Errorf("Validate with lanes %d: %v", tc.in, err)
		}
		if got := laneWidth(tc.in); got != tc.want {
			t.Errorf("laneWidth(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	for _, lanes := range []int{-7, -1, 65, 999} {
		if err := (SoakOptions{Lanes: lanes}).Validate(); !campaign.IsUsage(err) {
			t.Errorf("Validate with lanes %d: %v, want a usage error", lanes, err)
		}
		if _, err := SoakSource(SoakOptions{Lanes: lanes}, nil); !campaign.IsUsage(err) {
			t.Errorf("SoakSource with lanes %d: %v, want a usage error", lanes, err)
		}
	}
}
