package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ftspm/internal/experiments"
	"ftspm/internal/fabric"
	"ftspm/internal/server"
)

const fabricWorkers = 2

func fabricScale(tiny bool) float64 {
	if tiny {
		return 0.02
	}
	return 0.1
}

// fabricBench runs repeated fabric.RunSweep campaigns from a coordinator
// over two in-process ftspmd workers, each a fresh server.New behind
// loopback, with the commands' default fabric.Config: only Workers and
// a fresh Checkpoint are set. One op is one campaign; its units are the
// campaign's jobs.
type fabricBench struct {
	cfg      config
	scale    float64
	want     []byte        // single-node summary, computed in set-up
	baseline time.Duration // single-node campaign wall time
	outputs  [][]byte
}

func newFabric(cfg config) *fabricBench {
	return &fabricBench{cfg: cfg, scale: fabricScale(cfg.tiny)}
}

// setup runs the single-node reference campaign, then one untimed
// fabric campaign.
func (f *fabricBench) setup(ctx context.Context) error {
	t0 := time.Now()
	sw, _, err := runSweepCampaign(ctx, f.cfg.scratch, "fabric-single", f.scale, false)
	if err != nil {
		return err
	}
	f.baseline = time.Since(t0)
	if f.want, err = summaryJSON(sw); err != nil {
		return err
	}
	_, _, _, err = f.op(ctx, -1, nil)
	return err
}

func (f *fabricBench) timed(ctx context.Context, d time.Duration) (phase, error) {
	return loopOps(ctx, d, func(i int) (int, uint64, time.Duration, error) { return f.op(ctx, i, nil) })
}

// workerPool is a set of fresh in-process ftspmd workers.
type workerPool struct {
	servers []*httptest.Server
	urls    []string
}

func startWorkers(dir string) (*workerPool, error) {
	p := &workerPool{}
	for w := 0; w < fabricWorkers; w++ {
		srv, err := server.New(server.Config{DataDir: filepath.Join(dir, fmt.Sprintf("worker-%d", w))})
		if err != nil {
			p.close()
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		p.servers = append(p.servers, ts)
		p.urls = append(p.urls, ts.URL)
	}
	return p, nil
}

func (p *workerPool) close() {
	for _, ts := range p.servers {
		ts.Close()
	}
}

// op runs one campaign on fresh workers and records its summary. Only
// the campaign is timed, not the workers' start and stop. A non-nil
// client is passed through fabric.Config.HTTPClient.
func (f *fabricBench) op(ctx context.Context, i int, client *http.Client) (int, uint64, time.Duration, error) {
	dir := filepath.Join(f.cfg.scratch, fmt.Sprintf("fabric-%d", i))
	defer os.RemoveAll(dir)
	pool, err := startWorkers(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	defer pool.close()
	cfg := fabric.Config{Workers: pool.urls, Checkpoint: filepath.Join(dir, "campaign.ckpt"), HTTPClient: client}
	t0 := time.Now()
	sw, status, err := fabric.RunSweep(ctx, cfg, experiments.Options{Scale: f.scale})
	el := time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	if fl := status.FirstFailure(); fl != nil {
		return 0, 0, 0, fl
	}
	blob, err := summaryJSON(sw)
	if err != nil {
		return 0, 0, 0, err
	}
	f.outputs = append(f.outputs, blob)
	return status.Completed, sweepAccesses(sw), el, nil
}

func (f *fabricBench) check(context.Context) error {
	for i, got := range f.outputs {
		if !bytes.Equal(got, f.want) {
			return fmt.Errorf("fabric campaign %d of %d (set-up included): merged summary differs from the single-node campaign's", i+1, len(f.outputs))
		}
	}
	return nil
}

func (f *fabricBench) close() {}
