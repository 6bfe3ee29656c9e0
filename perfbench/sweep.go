package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ftspm/internal/experiments"
	"ftspm/internal/resultcache"
)

// sweepScale is the scale of the committed sweep golden,
// results/summary.json.
const sweepScale = 0.25

// sweep is the paper's evaluation: repeated cold 12-workload ×
// 3-structure sweeps through experiments.RunSweepCampaign, each with a
// fresh checkpoint journal and a fresh, empty result cache. One op is
// one sweep; its units are the sweep's jobs.
type sweep struct {
	cfg     config
	golden  string
	outputs [][]byte // Summarize JSON of every op, warm-up first
}

func newSweep(cfg config) *sweep {
	return &sweep{cfg: cfg, golden: filepath.Join(cfg.root, "results", "summary.json")}
}

func (s *sweep) setup(ctx context.Context) error {
	_, _, _, err := s.op(ctx, -1)
	return err
}

func (s *sweep) timed(ctx context.Context, d time.Duration) (phase, error) {
	return loopOps(ctx, d, func(i int) (int, uint64, time.Duration, error) { return s.op(ctx, i) })
}

// op runs one cold sweep and records its summary.
func (s *sweep) op(ctx context.Context, i int) (int, uint64, time.Duration, error) {
	sw, jobs, err := runSweepCampaign(ctx, s.cfg.scratch, fmt.Sprintf("sweep-%d", i), sweepScale, true)
	if err != nil {
		return 0, 0, 0, err
	}
	blob, err := summaryJSON(sw)
	if err != nil {
		return 0, 0, 0, err
	}
	s.outputs = append(s.outputs, blob)
	return jobs, sweepAccesses(sw), 0, nil
}

func (s *sweep) check(context.Context) error {
	want, err := os.ReadFile(s.golden)
	if err != nil {
		return err
	}
	for i, got := range s.outputs {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("sweep %d of %d (set-up included): summary differs from %s", i+1, len(s.outputs), s.golden)
		}
	}
	return nil
}

func (s *sweep) close() {}

// runSweepCampaign runs one cold sweep campaign with a fresh journal
// (removed afterwards) and, if withCache, a fresh, empty result cache
// that every job misses and fills. It returns the sweep and its job
// count.
func runSweepCampaign(ctx context.Context, dir, name string, scale float64, withCache bool) (*experiments.Sweep, int, error) {
	cc := experiments.CampaignConfig{Checkpoint: filepath.Join(dir, name+".ckpt")}
	defer os.Remove(cc.Checkpoint)
	if withCache {
		var err error
		if cc.Cache, err = resultcache.Open(resultcache.Config{}); err != nil {
			return nil, 0, err
		}
	}
	sw, status, err := experiments.RunSweepCampaign(ctx, experiments.Options{Scale: scale}, cc)
	if err != nil {
		return nil, 0, err
	}
	if f := status.FirstFailure(); f != nil {
		return nil, 0, f
	}
	if cc.Cache != nil {
		if st := cc.Cache.Stats(); st.Misses != uint64(status.Completed) || st.Hits != 0 {
			return nil, 0, fmt.Errorf("sweep cache not cold: %d hits, %d misses for %d jobs",
				st.Hits, st.Misses, status.Completed)
		}
	}
	return sw, status.Completed, nil
}

// summaryJSON renders a sweep exactly as ftspm-bench -json writes it.
func summaryJSON(sw *experiments.Sweep) ([]byte, error) {
	sum, err := experiments.Summarize(sw)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sweepAccesses(sw *experiments.Sweep) uint64 {
	var n uint64
	for _, row := range sw.Outcomes {
		for _, out := range row {
			n += out.Sim.Accesses
		}
	}
	return n
}
