package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/faults"
	"ftspm/internal/spm"
)

var soakStructures = []core.Structure{core.StructFTSPM, core.StructPureSRAM, core.StructPureSTT}

// soakSizes are the trials per structure of the two halves of one soak
// campaign, sized so that each half takes a similar time.
func soakSizes(tiny bool) (packed, storm int) {
	if tiny {
		return 64, 2
	}
	return 256, 8
}

// packedSoakOptions is the memoryless-strike half: the BENCH_soak.json
// golden's options with more trials.
func packedSoakOptions(trials int, seed int64) experiments.SoakOptions {
	rec := spm.DefaultRecovery()
	return experiments.SoakOptions{
		Trials: trials, Scale: 0.05, StrikesPerAccess: 0.01, Seed: seed, Recovery: &rec,
	}
}

// stormSoakOptions is the storm half: default recovery under the
// default storm, with no wear and no adaptive defenses. The packed
// engine declines it, so every structure falls back to the scalar
// simulator.
func stormSoakOptions(trials int, seed int64) experiments.SoakOptions {
	rec := spm.DefaultRecovery()
	st := faults.DefaultStorm()
	return experiments.SoakOptions{
		Trials: trials, Scale: 0.05, Seed: seed, Recovery: &rec, Storm: &st,
	}
}

// soak runs repeated soak campaigns on all three structures, each made
// of a packed half and a storm half. One op is one campaign; its units
// are the campaign's trials.
type soak struct {
	cfg       config
	packed    experiments.SoakOptions
	storm     experiments.SoakOptions
	outputs   [][]byte // reports of every op, warm-up first
	fallbacks []uint64 // scalar-fallback delta of every op's storm half
}

func newSoak(cfg config) *soak {
	p, st := soakSizes(cfg.tiny)
	seed := 1 + cfg.seed*7919
	return &soak{cfg: cfg, packed: packedSoakOptions(p, seed), storm: stormSoakOptions(st, seed)}
}

func (s *soak) setup(ctx context.Context) error {
	_, _, _, err := s.op(ctx)
	return err
}

func (s *soak) timed(ctx context.Context, d time.Duration) (phase, error) {
	return loopOps(ctx, d, func(int) (int, uint64, time.Duration, error) { return s.op(ctx) })
}

func (s *soak) op(ctx context.Context) (int, uint64, time.Duration, error) {
	packed, err := runSoak(ctx, s.packed)
	if err != nil {
		return 0, 0, 0, err
	}
	before := experiments.ScalarFallbackCount()
	storm, err := runSoak(ctx, s.storm)
	if err != nil {
		return 0, 0, 0, err
	}
	s.fallbacks = append(s.fallbacks, experiments.ScalarFallbackCount()-before)
	all := append(packed, storm...)
	blob, err := json.Marshal(all)
	if err != nil {
		return 0, 0, 0, err
	}
	s.outputs = append(s.outputs, blob)
	var trials int
	var acc uint64
	for _, r := range all {
		trials += r.Trials
		acc += r.Accesses
	}
	return trials, acc, 0, nil
}

// check confirms that every campaign reproduced the first campaign's reports
// and fell back to the scalar simulator exactly once per structure in
// its storm half, then reproduces the BENCH_soak.json goldens.
func (s *soak) check(ctx context.Context) error {
	for i, got := range s.outputs {
		if !bytes.Equal(got, s.outputs[0]) {
			return fmt.Errorf("soak campaign %d of %d (set-up included): reports differ from the first campaign's", i+1, len(s.outputs))
		}
		if s.fallbacks[i] != uint64(len(soakStructures)) {
			return fmt.Errorf("soak campaign %d of %d: %d scalar fallbacks in the storm half, want %d",
				i+1, len(s.outputs), s.fallbacks[i], len(soakStructures))
		}
	}
	return checkSoakGolden(ctx, filepath.Join(s.cfg.root, "BENCH_soak.json"))
}

func (s *soak) close() {}

func runSoak(ctx context.Context, opts experiments.SoakOptions) ([]*experiments.SoakReport, error) {
	reps, status, err := experiments.RunSoakCampaign(ctx, opts, soakStructures, experiments.CampaignConfig{})
	if err != nil {
		return nil, err
	}
	if f := status.FirstFailure(); f != nil {
		return nil, f
	}
	return reps, nil
}

// Golden soak configurations, as soak_golden_test.go runs them:
//
//	go run ./cmd/ftspm-soak -trials 8 -scale 0.05 -strike 0.01 -seed 1
//	go run ./cmd/ftspm-soak -trials 4 -scale 0.05 -seed 1 -storm -adaptive
func goldenSoakOptions() experiments.SoakOptions { return packedSoakOptions(8, 1) }

func goldenStormOptions() experiments.SoakOptions {
	rec := spm.DefaultRecovery()
	ad := spm.DefaultAdaptive()
	rec.Adaptive = &ad
	return experiments.SoakOptions{
		Trials: 4, Scale: 0.05, StrikesPerAccess: 0.01, Seed: 1, Recovery: &rec,
		Storm: &faults.StormConfig{
			CalmStrikesPerAccess:  0.001,
			StormStrikesPerAccess: 0.2,
			MeanCalmAccesses:      4000,
			MeanStormAccesses:     400,
			SpatialSpan:           2,
			ThermalFactor:         1,
			HotBlocks:             4,
		},
	}
}

// checkSoakGolden reproduces the reports and storm_reports of the
// committed soak golden.
func checkSoakGolden(ctx context.Context, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var golden struct {
		Reports      []json.RawMessage `json:"reports"`
		StormReports []json.RawMessage `json:"storm_reports"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, c := range []struct {
		name string
		opts experiments.SoakOptions
		want []json.RawMessage
	}{
		{"reports", goldenSoakOptions(), golden.Reports},
		{"storm_reports", goldenStormOptions(), golden.StormReports},
	} {
		reps, err := runSoak(ctx, c.opts)
		if err != nil {
			return err
		}
		if len(c.want) != len(reps) {
			return fmt.Errorf("%s: %d %s, want %d", path, len(c.want), c.name, len(reps))
		}
		for i, rep := range reps {
			got, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			var want bytes.Buffer
			if err := json.Compact(&want, c.want[i]); err != nil {
				return err
			}
			if !bytes.Equal(got, want.Bytes()) {
				return fmt.Errorf("%s: %s[%d] (%v) not reproduced", path, c.name, i, rep.Structure)
			}
		}
	}
	return nil
}
