package fabric

import (
	"context"
	"strings"

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

// RunSweep executes the full-suite sweep campaign across the fabric:
// RunSweepOn with cfg.Run as the executor. It remains only because the
// benchmark harness in perfbench/ imports it.
func RunSweep(ctx context.Context, cfg Config, opts experiments.Options) (*experiments.Sweep, *experiments.CampaignStatus, error) {
	return experiments.RunSweepOn(ctx, opts, cfg.Run)
}
