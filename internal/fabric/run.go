package fabric

import (
	"context"
	"encoding/json"
	"strings"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/experiments"
)

// ParseWorkers parses a CLI worker list: comma-separated base URLs,
// with a bare host:port defaulting to http.
func ParseWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		if !strings.Contains(w, "://") {
			w = "http://" + w
		}
		out = append(out, strings.TrimRight(w, "/"))
	}
	return out
}

// RunSweep executes the full-suite sweep campaign across the fabric.
// It returns the same (sweep, status, error) a local
// experiments.RunSweepCampaign does — assembled by the same source, so
// a distributed sweep is byte-identical to a single-node run.
func RunSweep(ctx context.Context, cfg Config, opts experiments.Options) (*experiments.Sweep, *experiments.CampaignStatus, error) {
	return experiments.RunSweepOn(ctx, opts, executor(cfg))
}

// RunSoak executes a soak campaign over the listed structures across
// the fabric, mirroring experiments.RunSoakCampaign.
func RunSoak(ctx context.Context, cfg Config, base experiments.SoakOptions, structures []core.Structure) ([]*experiments.SoakReport, *experiments.CampaignStatus, error) {
	return experiments.RunSoakOn(ctx, base, structures, executor(cfg))
}

// executor binds Run to cfg.
func executor(cfg Config) experiments.Executor {
	return func(ctx context.Context, src *experiments.JobSource) (*campaign.Report[json.RawMessage], error) {
		return Run(ctx, cfg, src)
	}
}
