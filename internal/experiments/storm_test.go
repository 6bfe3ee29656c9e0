package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/faults"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
)

// stormTestOptions is a small but violent storm campaign: bursts
// arrive every ~1k accesses, last ~200, and corrupt two adjacent
// words per event.
func stormTestOptions() SoakOptions {
	rec := spm.DefaultRecovery()
	return SoakOptions{
		Workload: "crc32", Trials: 4, Scale: 0.02, Seed: 13,
		Recovery: &rec,
		Storm: &faults.StormConfig{
			CalmStrikesPerAccess:  0.001,
			StormStrikesPerAccess: 0.25,
			MeanCalmAccesses:      1000,
			MeanStormAccesses:     200,
			SpatialSpan:           2,
		},
	}
}

// runSoakOn runs one storm campaign against a single structure.
func runSoakOn(opts SoakOptions, s core.Structure) (*SoakReport, error) {
	opts.Structure = s
	return runSoak(opts)
}

// TestStormSoakFallsBackToScalar pins the storm half of the fallback
// gate: the packed engine declines storm configurations through
// simd.ErrUnsupported (no pre-gate in the job body), the scalar
// fallback counter ticks once per structure under the storm cause
// alone, however many workers help with the structures' batches, and
// the campaign still produces the scalar result byte for byte.
func TestStormSoakFallsBackToScalar(t *testing.T) {
	opts := stormTestOptions()
	structures := []core.Structure{core.StructFTSPM, core.StructPureSRAM}
	for _, workers := range []int{0, 4} {
		before := ScalarFallbacks()
		packed, scalar := runSoakBothPaths(t, opts, structures, workers)
		if got, want := fallbacksSince(before), (FallbackCounts{Storm: uint64(len(structures))}); got != want {
			t.Errorf("workers=%d: storm soak fallbacks by cause = %+v, want %+v (one storm decline per structure)",
				workers, got, want)
		}
		for i, s := range structures {
			if !reflect.DeepEqual(packed[i], scalar[i]) {
				t.Errorf("workers=%d, %v: storm campaign diverged between lane settings:\nauto:   %+v\nscalar: %+v",
					workers, s, *packed[i], *scalar[i])
			}
		}
		if packed[0].Strikes == 0 {
			t.Error("storm injected no strikes; fallback test is vacuous")
		}
	}
}

// TestAdaptiveStormSoakBeatsFixedScrub is the PR's pinned acceptance
// criterion: under the same storm, the adaptive defenses (scrub
// escalation + emergency refresh) end with strictly fewer SDC
// outcomes than a fixed-rate scrubber.
func TestAdaptiveStormSoakBeatsFixedScrub(t *testing.T) {
	fixed := spm.DefaultRecovery()
	fixed.ScrubInterval = 4096

	adaptive := fixed
	ad := spm.DefaultAdaptive()
	// FTSPM's detected-error rate is low in absolute terms (most of the
	// surface is strike-immune STT), so the windows are tuned to catch
	// bursts of a few events: any 256-access window with >= 1 detection
	// escalates, and calm de-escalates after 4 quiet windows.
	ad.WindowAccesses = 256
	ad.MinDwellWindows = 4
	ad.EscalateRate = 0.002
	ad.DeescalateRate = 0.0005
	ad.EscalatedScrubInterval = 64
	adaptive.Adaptive = &ad

	opts := SoakOptions{
		Workload: "crc32", Trials: 8, Scale: 0.02, Seed: 101,
		Target: sim.TargetBothSPMs,
		Storm: &faults.StormConfig{
			CalmStrikesPerAccess:  0.001,
			StormStrikesPerAccess: 0.3,
			MeanCalmAccesses:      800,
			MeanStormAccesses:     400,
			SpatialSpan:           2,
		},
	}
	sdcOutcomes := func(rec *spm.RecoveryConfig) uint64 {
		o := opts
		rc := *rec
		o.Recovery = &rc
		rep, err := runSoakOn(o, core.StructFTSPM)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(rep.EndAudit.SDC) + rep.Recovery.SDCEscalations
	}
	fixedSDC := sdcOutcomes(&fixed)
	adaptiveSDC := sdcOutcomes(&adaptive)
	if fixedSDC == 0 {
		t.Fatal("fixed-scrub storm produced no SDC outcomes; acceptance test is vacuous")
	}
	if adaptiveSDC >= fixedSDC {
		t.Fatalf("adaptive defenses did not beat fixed scrub: %d SDC outcomes vs %d",
			adaptiveSDC, fixedSDC)
	}
}

// TestStormSoakDeterministic pins seed determinism: identical storm
// campaigns are byte-identical across runs, and across a
// checkpoint/resume cycle interrupted mid-campaign.
func TestStormSoakDeterministic(t *testing.T) {
	opts := stormTestOptions()
	ad := spm.DefaultAdaptive()
	opts.Recovery.Adaptive = &ad
	opts.Storm.HotBias = 0.3
	opts.Storm.HotBlocks = 2
	structs := []core.Structure{core.StructFTSPM}

	run := func(cc CampaignConfig, ctx context.Context) ([]*SoakReport, *CampaignStatus, error) {
		return RunSoakCampaign(ctx, opts, structs, cc)
	}
	a, st, err := run(CampaignConfig{}, context.Background())
	if err != nil || st.Failed != 0 {
		t.Fatalf("first run: %v (%+v)", err, st)
	}
	b, _, err := run(CampaignConfig{}, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("identical storm campaigns diverged:\n%s\nvs\n%s", ja, jb)
	}
	if a[0].Strikes == 0 {
		t.Fatal("storm injected nothing; determinism test is vacuous")
	}

	// Interrupt after the first finished trial, then resume.
	path := filepath.Join(t.TempDir(), "storm.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	_, _, err = run(CampaignConfig{Checkpoint: path,
		onJobDone: func(string, campaign.Status) {
			if done++; done == 1 {
				cancel()
			}
		}}, ctx)
	if !errors.Is(err, campaign.ErrIncomplete) {
		t.Fatalf("interrupted run: err = %v, want ErrIncomplete", err)
	}
	resumed, st2, err := run(CampaignConfig{Checkpoint: path, Resume: true}, context.Background())
	if err != nil || st2.Incomplete {
		t.Fatalf("resume: %v (%+v)", err, st2)
	}
	jr, _ := json.Marshal(resumed)
	if !bytes.Equal(ja, jr) {
		t.Fatalf("resumed storm campaign diverged from uninterrupted run:\n%s\nvs\n%s", ja, jr)
	}
}

// TestStormCacheBypass pins the cache rule: a cached non-storm result
// is never served for a storm request (and vice versa) — the fault-
// half mismatch is a recorded bypass, never a hit.
func TestStormCacheBypass(t *testing.T) {
	rec := spm.DefaultRecovery()
	base := SoakOptions{
		Workload: "crc32", Trials: 3, Scale: 0.02,
		StrikesPerAccess: 0.01, Seed: 7, Recovery: &rec,
	}
	structs := []core.Structure{core.StructFTSPM}
	ctx := context.Background()
	c := newTestCache(t)

	// Warm the cache with the non-storm campaign.
	if _, _, err := RunSoakCampaign(ctx, base, structs, CampaignConfig{Cache: c}); err != nil {
		t.Fatal(err)
	}
	warm := c.Stats()
	if warm.Misses != uint64(base.Trials) {
		t.Fatalf("warm-up stats %+v, want %d misses", warm, base.Trials)
	}

	// The same campaign with a storm attached must recompute every
	// trial: all bypasses, zero new hits.
	storm := base
	storm.Storm = &faults.StormConfig{StormStrikesPerAccess: 0.2}
	stormReps, _, err := RunSoakCampaign(ctx, storm, structs, CampaignConfig{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != warm.Hits {
		t.Fatalf("stats %+v: a storm request hit a non-storm entry", st)
	}
	if st.Bypasses != warm.Bypasses+uint64(base.Trials) {
		t.Fatalf("stats %+v, want %d recorded bypasses", st, base.Trials)
	}

	// And the storm entries themselves are sound: a repeat hits, a
	// non-storm rerun bypasses the storm entries right back.
	again, _, err := RunSoakCampaign(ctx, storm, structs, CampaignConfig{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if s2 := c.Stats(); s2.Hits != st.Hits+uint64(base.Trials) {
		t.Fatalf("stats %+v: identical storm campaign did not hit", s2)
	}
	ja, _ := json.Marshal(stormReps)
	jb, _ := json.Marshal(again)
	if !bytes.Equal(ja, jb) {
		t.Fatal("cached storm campaign diverged from the computed one")
	}
	if _, _, err := RunSoakCampaign(ctx, base, structs, CampaignConfig{Cache: c}); err != nil {
		t.Fatal(err)
	}
	if s3 := c.Stats(); s3.Hits != st.Hits+2*uint64(base.Trials) {
		t.Fatalf("stats %+v: non-storm rerun should hit its own warm entries", s3)
	}
}

// TestStormHotWindowsDeterministic pins the adversarial targeting: hot
// windows derive from the shared profile and placement, so every
// trial sees the same windows and a hot-biased campaign stays
// deterministic while differing from the untargeted one.
func TestStormHotWindowsDeterministic(t *testing.T) {
	opts := stormTestOptions()
	opts.Storm.HotBias = 0.9
	opts.Storm.HotBlocks = 2
	a, err := runSoakOn(opts, core.StructFTSPM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSoakOn(opts, core.StructFTSPM)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("hot-biased storm campaign is not deterministic")
	}
	opts.Storm.HotBias = 0
	untargeted, err := runSoakOn(opts, core.StructFTSPM)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, untargeted) {
		t.Error("hot bias had no effect on the campaign (targeting inert)")
	}
}
