package experiments

import (
	"math"
	"testing"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/spm"
)

func TestSoakScrubbingReducesDUERate(t *testing.T) {
	// Acceptance: at an identical strike rate and identical seeds, a
	// scrubbing controller must leave strictly fewer DUE words standing
	// than a scrub-off one — latent errors in cold words are cleared
	// before the end of the run instead of accumulating.
	base := SoakOptions{
		Structure:        core.StructFTSPM,
		Trials:           3,
		Scale:            0.05,
		StrikesPerAccess: 0.02,
		Seed:             42,
	}
	recOn := spm.DefaultRecovery()
	recOn.ScrubInterval = 256
	recOff := recOn
	recOff.ScrubInterval = 0

	on, off := base, base
	on.Recovery, off.Recovery = &recOn, &recOff
	repOn, err := runSoak(on)
	if err != nil {
		t.Fatal(err)
	}
	repOff, err := runSoak(off)
	if err != nil {
		t.Fatal(err)
	}
	if repOn.Strikes != repOff.Strikes {
		t.Fatalf("strike streams diverged: %d vs %d", repOn.Strikes, repOff.Strikes)
	}
	if repOn.Strikes == 0 {
		t.Fatal("no strikes landed; the comparison is vacuous")
	}
	if repOn.Recovery.ScrubRuns == 0 || repOff.Recovery.ScrubRuns != 0 {
		t.Fatalf("scrub wiring wrong: on=%d off=%d runs",
			repOn.Recovery.ScrubRuns, repOff.Recovery.ScrubRuns)
	}
	if repOn.DUERate() >= repOff.DUERate() {
		t.Errorf("scrubbing did not reduce the DUE rate: on %.5f >= off %.5f (strikes %d)",
			repOn.DUERate(), repOff.DUERate(), repOn.Strikes)
	}
}

func TestSoakWearDrivesGracefulDegradation(t *testing.T) {
	// A campaign with aggressive STT-RAM wear must observe write-verify
	// faults, degrade at least one block, and record the time-to-degraded.
	rec := spm.DefaultRecovery()
	rec.RemapThreshold = 1
	opts := SoakOptions{
		Structure: core.StructFTSPM,
		Trials:    2,
		Scale:     0.05,
		Seed:      7,
		Recovery:  &rec,
		Wear: &spm.WearConfig{
			WriteFailProb:   0.05,
			MaxWriteRetries: 2,
			StuckAtProb:     0.02,
		},
	}
	rep, err := runSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovery.StuckWordEvents == 0 || rep.Recovery.WriteRetries == 0 {
		t.Errorf("wear model inactive: %+v", rep.Recovery)
	}
	if rep.Recovery.Remaps+rep.Recovery.Demotions == 0 {
		t.Error("no block degraded under aggressive wear")
	}
	if rep.DegradedTrials == 0 || rep.MeanTimeToDegraded <= 0 {
		t.Errorf("time-to-degraded not recorded: trials=%d mean=%.1f",
			rep.DegradedTrials, rep.MeanTimeToDegraded)
	}
}

func TestSoakDeterministic(t *testing.T) {
	rec := spm.DefaultRecovery()
	opts := SoakOptions{
		Trials:           2,
		Scale:            0.02,
		StrikesPerAccess: 0.01,
		Seed:             5,
		Recovery:         &rec,
	}
	a, err := runSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSoak(opts)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Errorf("soak not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestSoakOptionDefaultsAndValidation(t *testing.T) {
	n := SoakOptions{}.normalize()
	if n.Workload == "" || !n.Structure.Valid() || n.Trials <= 0 || n.Scale <= 0 {
		t.Errorf("normalize left zero fields: %+v", n)
	}
	if _, err := runSoak(SoakOptions{Workload: "no-such-workload"}); err == nil {
		t.Error("unknown workload accepted")
	}
	bad := SoakOptions{StrikesPerAccess: 0.1}
	bad.Dist.P1 = 0.5 // does not sum to 1
	if _, err := runSoak(bad); err == nil {
		t.Error("invalid distribution accepted")
	}
	// Out-of-range numbers are usage errors, never defaulted or
	// clamped; zero still selects the default.
	for _, o := range []SoakOptions{
		{Trials: -3},
		{Scale: -1},
		{Scale: math.NaN()},
		{StrikesPerAccess: -0.5},
		{StrikesPerAccess: 1.5},
		{StrikesPerAccess: math.NaN()},
		{Lanes: -1},
		{Lanes: 65},
	} {
		if _, err := SoakSource(o, nil); !campaign.IsUsage(err) {
			t.Errorf("SoakSource(%+v): %v, want a usage error", o, err)
		}
	}
	if err := (SoakOptions{StrikesPerAccess: 1}).Validate(); err != nil {
		t.Errorf("strike 1 rejected: %v", err)
	}
}
