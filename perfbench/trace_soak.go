package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/faults"
	"ftspm/internal/profile"
	"ftspm/internal/sim"
	"ftspm/internal/simd"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// soakTrialStride is how a soak campaign derives trial t's seed:
// Seed + t*soakTrialStride. The replay's equality assertion fails if
// the campaign ever derives them differently.
const soakTrialStride = 1_000_003

// traceSoak times one soak campaign's halves untraced, after a warm-up
// campaign, replays the
// packed half through simd.BuildSkeleton and Engine.RunBatch, asserting
// that every structure's totals equal the campaign's, and plans every
// storm-half trial with faults.PlanStorm.
func traceSoak(ctx context.Context, cfg config, tr *tracer, m map[string]metric, notes map[string]any) error {
	s := newSoak(cfg)
	if _, _, _, err := s.op(ctx); err != nil { // warm-up
		return err
	}
	runtime.GC()
	t0 := time.Now()
	packed, err := runSoak(ctx, s.packed)
	if err != nil {
		return err
	}
	packedWall := time.Since(t0)
	before := experiments.ScalarFallbackCount()
	t1 := time.Now()
	storm, err := runSoak(ctx, s.storm)
	if err != nil {
		return err
	}
	stormWall := time.Since(t1)
	fallbacks := experiments.ScalarFallbackCount() - before

	opts := s.packed
	w, err := workloads.ByName(workloads.CaseStudyName)
	if err != nil {
		return err
	}
	runtime.GC()
	t2 := time.Now()
	op := tr.begin("soak.op", "soak", "packed-replay", 0)
	var events []trace.Event
	var prof *profile.Profile
	tr.timeSpan("workloads.trace", "soak", w.Name, op, func() error {
		events = w.TraceEvents(opts.Scale)
		return nil
	})
	err = tr.timeSpan("profile.run", "soak", w.Name, op, func() (err error) {
		prof, err = profile.Run(w.Program(), trace.Replay(events))
		return err
	})
	if err != nil {
		tr.end(op)
		return err
	}
	var laneAccesses uint64
	places := make([]spm.Placement, len(soakStructures))
	for i, st := range soakStructures {
		acc, place, err := replayPacked(ctx, tr, op, w, st, prof, events, opts, packed[i])
		if err != nil {
			tr.end(op)
			return fmt.Errorf("%v: %w", st, err)
		}
		laneAccesses += acc
		places[i] = place
	}
	tr.end(op)
	traced := time.Since(t2)

	// Storm plans: one per storm-half trial, over the data SPM surface
	// the live storm strikes.
	dist := faults.Dist40nm
	stormCfg := s.storm.Storm.Normalized()
	for i, st := range soakStructures {
		spec, err := core.NewSpec(st)
		if err != nil {
			return err
		}
		machine, err := sim.New(w.Program(), spec.SimConfig(places[i]))
		if err != nil {
			return err
		}
		var surface []faults.RegionSurface
		for _, r := range machine.DataSPM().Regions() {
			surface = append(surface, faults.RegionSurface{
				Words: r.Words(), CodeBits: r.Codec().CodeBits(), Immune: r.Kind().Immune(),
			})
		}
		perTrial := storm[i].Accesses / uint64(storm[i].Trials)
		for t := 0; t < storm[i].Trials; t++ {
			seed := s.storm.Seed + int64(t)*soakTrialStride
			err := tr.timeSpan("faults.plan_storm", "soak", fmt.Sprintf("%v/trial/%d", st, t), 0, func() error {
				_, err := faults.PlanStorm(stormCfg, dist, seed, [][]faults.RegionSurface{surface}, nil, perTrial)
				return err
			})
			if err != nil {
				return err
			}
		}
	}

	batches := tr.durations("soak", "simd.batch")
	stormTrials := 0
	for _, r := range storm {
		stormTrials += r.Trials
	}
	m["simd.skeleton_ms"] = metric{median(tr.durations("soak", "simd.skeleton")), "ms"}
	m["simd.batch_ms"] = metric{median(batches), "ms"}
	m["simd.lane_accesses_per_s"] = metric{float64(laneAccesses) / (sum(batches) / 1000), "1/s"}
	m["faults.plan_storm_us"] = metric{1000 * median(tr.durations("soak", "faults.plan_storm")), "us"}
	m["experiments.storm_trial_ms"] = metric{ms(stormWall) / float64(stormTrials), "ms"}
	m["experiments.scalar_fallbacks"] = metric{float64(fallbacks), "count"}
	m["tracing.soak_overhead"] = metric{traced.Seconds()/packedWall.Seconds() - 1, "ratio"}
	notes["soak"] = map[string]any{
		"packed_half_ms":    ms(packedWall),
		"storm_half_ms":     ms(stormWall),
		"packed_replay_ms":  ms(traced),
		"storm_trials":      stormTrials,
		"replay_equals_run": true,
	}
	return nil
}

// replayPacked runs one structure's packed half through the lane
// engine, one 64-lane batch at a time, and checks its totals against
// the campaign's report. It returns the lanes' simulated accesses and
// the structure's placement.
func replayPacked(ctx context.Context, tr *tracer, parent int, w workloads.Workload, st core.Structure,
	prof *profile.Profile, events []trace.Event, opts experiments.SoakOptions, want *experiments.SoakReport) (uint64, spm.Placement, error) {
	spec, err := core.NewSpec(st)
	if err != nil {
		return 0, nil, err
	}
	op := st.String()
	var mapping core.Mapping
	if err := tr.timeSpan("core.map", "soak", op, parent, func() (err error) {
		mapping, err = core.MapBlocks(prof, spec, core.DefaultThresholds(), core.PriorityReliability)
		return err
	}); err != nil {
		return 0, nil, err
	}
	simCfg := spec.SimConfig(mapping.Placement)
	rec := *opts.Recovery
	simCfg.Recovery = &rec
	var sk *simd.Skeleton
	if err := tr.timeSpan("simd.skeleton", "soak", op, parent, func() (err error) {
		sk, err = simd.BuildSkeleton(ctx, w.Program(), simCfg, events)
		return err
	}); err != nil {
		return 0, nil, err
	}
	eng, err := simd.NewEngine(sk, simd.Injection{StrikesPerAccess: opts.StrikesPerAccess, Dist: faults.Dist40nm})
	if err != nil {
		return 0, nil, err
	}
	var got experiments.SoakReport
	for t0 := 0; t0 < opts.Trials; t0 += simd.MaxLanes {
		n := min(simd.MaxLanes, opts.Trials-t0)
		seeds := make([]int64, n)
		for i := range seeds {
			seeds[i] = opts.Seed + int64(t0+i)*soakTrialStride
		}
		batch := make([]simd.TrialResult, n)
		if err := tr.timeSpan("simd.batch", "soak", fmt.Sprintf("%s/batch/%d", op, t0/simd.MaxLanes), parent, func() error {
			return eng.RunBatch(ctx, seeds, batch)
		}); err != nil {
			return 0, nil, err
		}
		for _, r := range batch {
			got.Accesses += r.Accesses
			got.Strikes += r.Strikes
			got.Recovery.Add(r.Recovery)
			got.EndAudit.Benign += r.Audit.Benign
			got.EndAudit.DRE += r.Audit.DRE
			got.EndAudit.DUE += r.Audit.DUE
			got.EndAudit.SDC += r.Audit.SDC
		}
	}
	if got.Accesses != want.Accesses || got.Strikes != want.Strikes ||
		!reflect.DeepEqual(got.Recovery, want.Recovery) || got.EndAudit != want.EndAudit {
		return 0, nil, fmt.Errorf("replayed packed totals differ from the campaign's")
	}
	return got.Accesses, mapping.Placement, nil
}
