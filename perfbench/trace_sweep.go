package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"ftspm/internal/avf"
	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/endurance"
	"ftspm/internal/experiments"
	"ftspm/internal/faults"
	"ftspm/internal/profile"
	"ftspm/internal/resultcache"
	"ftspm/internal/sim"
	"ftspm/internal/spm"
	"ftspm/internal/trace"
	"ftspm/internal/workloads"
)

// appendRounds is how often the traced sweep re-journals its 36 job
// records into fresh journals, so campaign.append_p99_ms rests on more
// than a thousand appends.
const appendRounds = 32

// sweepStages are the span names of one sweep job's pipeline stages.
var sweepStages = []string{
	"workloads.trace", "profile.run", "core.map", "sim.run", "avf.compute", "endurance.rate",
	"resultcache.key", "resultcache.put", "campaign.sum", "campaign.append",
}

// traceSweep times one cold sweep campaign untraced, after a warm-up
// campaign, then replays each
// of its jobs stage by stage through the same public calls the
// campaign's jobs make, on as many workers, and asserts that every
// replayed outcome equals the campaign's.
func traceSweep(ctx context.Context, cfg config, tr *tracer, m map[string]metric, notes map[string]any) error {
	if _, _, err := runSweepCampaign(ctx, cfg.scratch, "trace-warm-up", sweepScale, true); err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	sw, _, err := runSweepCampaign(ctx, cfg.scratch, "trace-sweep", sweepScale, true)
	if err != nil {
		return err
	}
	untraced := time.Since(t0)

	cache, err := resultcache.Open(resultcache.Config{})
	if err != nil {
		return err
	}
	jl, _, err := campaign.OpenJournal(filepath.Join(cfg.scratch, "trace-sweep-replay.ckpt"), "perfbench", false)
	if err != nil {
		return err
	}
	defer jl.Close()
	opts := experiments.DefaultOptions()
	suite := workloads.Suite()

	runtime.GC()
	t1 := time.Now()
	op := tr.begin("sweep.op", "sweep", "replay", 0)
	records := make([]campaign.Result[json.RawMessage], len(suite)*len(core.Structures()))
	err = parallel(len(suite), func(wi int) error {
		w := suite[wi]
		var events []trace.Event
		var prof *profile.Profile
		if err := tr.timeSpan("workloads.trace", "sweep", w.Name, op, func() error {
			events = w.TraceEvents(opts.Scale)
			return nil
		}); err != nil {
			return err
		}
		if err := tr.timeSpan("profile.run", "sweep", w.Name, op, func() (err error) {
			prof, err = profile.Run(w.Program(), trace.Replay(events))
			return err
		}); err != nil {
			return err
		}
		for si, s := range core.Structures() {
			id := "sweep/" + w.Name + "/" + s.String()
			blob, err := replayJob(ctx, tr, op, id, w, s, prof, events, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			want, err := sw.Get(w.Name, s)
			if err != nil {
				return err
			}
			wantBlob, err := json.Marshal(want)
			if err != nil {
				return err
			}
			if !bytes.Equal(blob, wantBlob) {
				return fmt.Errorf("%s: replayed outcome differs from the campaign's", id)
			}
			if err := cacheAndJournal(tr, op, id, blob, cache, jl); err != nil {
				return err
			}
			records[wi*len(core.Structures())+si] = campaign.Result[json.RawMessage]{
				ID: id, Status: campaign.StatusDone, Attempts: 1, Value: blob,
			}
		}
		return nil
	})
	tr.end(op)
	traced := time.Since(t1)
	if err != nil {
		return err
	}

	// More appends of the same records, for the append percentile.
	for r := 0; r < appendRounds; r++ {
		j, _, err := campaign.OpenJournal(filepath.Join(cfg.scratch, fmt.Sprintf("trace-append-%d.ckpt", r)), "perfbench", false)
		if err != nil {
			return err
		}
		for _, rec := range records {
			if err := tr.timeSpan("campaign.append", "sweep", rec.ID, 0, func() error { return j.Append(rec) }); err != nil {
				j.Close()
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
	}

	perSweep := func(name string) float64 { return ms(tr.selfTotal("sweep", name)) }
	var stageTotal time.Duration
	for _, st := range sweepStages {
		stageTotal += tr.selfTotal("sweep", st)
	}
	// The appendRounds extra appends are not part of the replayed
	// sweep; take them out of its stage total.
	appends := tr.durations("sweep", "campaign.append")
	stageTotal -= time.Duration((sum(appends) - sum(appends[:len(records)])) * float64(time.Millisecond))
	workers := float64(runtime.GOMAXPROCS(0))
	accesses := sweepAccesses(sw)

	m["workloads.trace_ms"] = metric{perSweep("workloads.trace"), "ms"}
	m["profile.run_ms"] = metric{perSweep("profile.run"), "ms"}
	m["core.map_ms"] = metric{perSweep("core.map"), "ms"}
	m["sim.run_ms"] = metric{perSweep("sim.run"), "ms"}
	m["avf.compute_ms"] = metric{perSweep("avf.compute"), "ms"}
	m["endurance.rate_ms"] = metric{perSweep("endurance.rate"), "ms"}
	m["sim.accesses"] = metric{float64(accesses), "count"}
	m["sim.ns_per_access"] = metric{float64(tr.selfTotal("sweep", "sim.run")) / float64(accesses), "ns"}
	m["campaign.append_ms"] = metric{median(appends), "ms"}
	m["campaign.append_p99_ms"] = metric{percentile(appends, 99), "ms"}
	m["campaign.sum_us"] = metric{1000 * median(tr.durations("sweep", "campaign.sum")), "us"}
	m["resultcache.put_us"] = metric{1000 * median(tr.durations("sweep", "resultcache.put")), "us"}
	m["tracing.sweep_stage_share"] = metric{stageTotal.Seconds() / workers / untraced.Seconds(), "ratio"}
	m["tracing.sweep_overhead"] = metric{traced.Seconds()/untraced.Seconds() - 1, "ratio"}
	notes["sweep"] = map[string]any{
		"untraced_op_ms":    ms(untraced),
		"traced_op_ms":      ms(traced),
		"stage_self_ms":     ms(stageTotal),
		"workers":           workers,
		"stage_share":       "stage self times / workers / untraced sweep op: how much of sweep/op_ms the stages account for",
		"appends_timed":     len(appends),
		"replay_equals_run": true,
	}
	return nil
}

// replayJob evaluates one (workload, structure) job stage by stage, as
// the sweep campaign's job does, and returns its outcome JSON.
func replayJob(ctx context.Context, tr *tracer, parent int, id string, w workloads.Workload, s core.Structure,
	prof *profile.Profile, events []trace.Event, opts experiments.Options) ([]byte, error) {
	spec, err := core.NewSpec(s)
	if err != nil {
		return nil, err
	}
	job := tr.begin("sweep.job", "sweep", id, parent)
	defer tr.end(job)
	var mapping core.Mapping
	if err := tr.timeSpan("core.map", "sweep", id, job, func() (err error) {
		mapping, err = core.MapBlocks(prof, spec, opts.Thresholds, opts.Priority)
		return err
	}); err != nil {
		return nil, err
	}
	var machine *sim.Machine
	var res sim.Result
	if err := tr.timeSpan("sim.run", "sweep", id, job, func() (err error) {
		if machine, err = sim.New(w.Program(), spec.SimConfig(mapping.Placement)); err != nil {
			return err
		}
		res, err = machine.RunContext(ctx, trace.Replay(events))
		return err
	}); err != nil {
		return nil, err
	}
	mode := avf.ModeUniform
	if len(spec.DataKinds) > 1 {
		mode = avf.ModePerBlock
	}
	var rep avf.Report
	if err := tr.timeSpan("avf.compute", "sweep", id, job, func() (err error) {
		rep, err = avf.Compute(prof, mapping.Placement, faults.Dist40nm, spec.DSPMBytes(), mode)
		return err
	}); err != nil {
		return nil, err
	}
	var rate float64
	if _, hasSTT := machine.DataSPM().RegionByKind(spm.RegionSTT); hasSTT {
		if err := tr.timeSpan("endurance.rate", "sweep", id, job, func() (err error) {
			rate, err = endurance.MaxCellWriteRate(machine.DataSPM(), res.Cycles, spm.RegionSTT)
			if errors.Is(err, endurance.ErrNoExecution) {
				err = nil
			}
			return err
		}); err != nil {
			return nil, err
		}
	}
	return json.Marshal(experiments.Outcome{
		Workload: w.Name, Structure: s, Spec: spec, Profile: prof, Mapping: mapping,
		Sim: res, AVF: rep, STTWriteRate: rate,
	})
}

// cacheAndJournal stores one job result the way a cached, checkpointed
// campaign does: key it, put it, hash it, and journal it with fsync.
func cacheAndJournal(tr *tracer, parent int, id string, blob []byte, cache *resultcache.Cache, jl *campaign.Journal) error {
	var k resultcache.Key
	if err := tr.timeSpan("resultcache.key", "sweep", id, parent, func() (err error) {
		k, err = resultcache.NewKey("perfbench/sweep-job", struct {
			ID    string  `json:"id"`
			Scale float64 `json:"scale"`
		}{id, sweepScale}, struct {
			Model string `json:"model"`
		}{"analytic-avf"})
		return err
	}); err != nil {
		return err
	}
	if err := tr.timeSpan("resultcache.put", "sweep", id, parent, func() error {
		cache.Put(k, blob)
		return nil
	}); err != nil {
		return err
	}
	rec := campaign.Result[json.RawMessage]{ID: id, Status: campaign.StatusDone, Attempts: 1, Value: blob}
	if err := tr.timeSpan("campaign.sum", "sweep", id, parent, func() error {
		_, _, err := campaign.SumResult(rec)
		return err
	}); err != nil {
		return err
	}
	return tr.timeSpan("campaign.append", "sweep", id, parent, func() error { return jl.Append(rec) })
}
