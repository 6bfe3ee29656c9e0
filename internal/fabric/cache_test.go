package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/resultcache"
)

// A coordinator whose cache already holds every result must complete
// the campaign without placing a single job: the worker list is an
// unreachable address and local fallback is disabled, so any job that
// escaped the cache pre-merge would hang the run. The assembled sweep
// must be byte-identical to a plain single-node run.
func TestCoordinatorCacheCompletesWithoutWorkers(t *testing.T) {
	opts := experiments.Options{Scale: 0.02}
	golden, gst, err := experiments.RunSweepCampaign(context.Background(), opts, experiments.CampaignConfig{})
	if err != nil {
		t.Fatalf("golden sweep: %v", err)
	}
	if gst.Incomplete || gst.Failed != 0 {
		t.Fatalf("golden status unclean: %+v", gst)
	}

	c, err := resultcache.Open(resultcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache through a local cached campaign — the only path
	// results are allowed to enter a coordinator cache from.
	if _, _, err := experiments.RunSweepCampaign(context.Background(), opts,
		experiments.CampaignConfig{Cache: c}); err != nil {
		t.Fatalf("warming sweep: %v", err)
	}
	warm := c.Stats()

	// Safety net: a cache miss would leave the queue undrainable (no
	// reachable worker, no fallback), so a stuck run fails loudly here
	// rather than timing out the whole test binary.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sw, st, err := RunSweep(ctx, Config{
		Workers:         []string{"http://127.0.0.1:1"},
		NoLocalFallback: true,
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    100 * time.Millisecond,
		Cache:           c,
		Logf:            t.Logf,
	}, opts)
	if err != nil {
		t.Fatalf("fabric sweep from cache: %v", err)
	}
	if st.Incomplete || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("fabric status unclean: %+v", st)
	}
	got, _ := json.Marshal(sw)
	want, _ := json.Marshal(golden)
	if !bytes.Equal(got, want) {
		t.Fatalf("cache-served sweep diverged from single-node golden:\n got %s\nwant %s", got, want)
	}
	if after := c.Stats(); after.Hits <= warm.Hits {
		t.Fatalf("coordinator run recorded no cache hits: before %+v after %+v", warm, after)
	}
}

// A partially warm cache pre-merges what it holds and the rest executes
// through the normal placement path (here the local fallback, with
// every worker down): the soak report must be byte-identical to a
// single-node run, and the shared trial keys mean a 2-trial warmup
// serves half of a 4-trial campaign.
func TestCoordinatorCachePartialWarmMergesWithExecution(t *testing.T) {
	structures := []core.Structure{core.StructFTSPM}
	warmOpts := experiments.SoakOptions{Trials: 2, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 5}
	fullOpts := warmOpts
	fullOpts.Trials = 4

	golden, gst, err := experiments.RunSoakCampaign(context.Background(), fullOpts, structures, experiments.CampaignConfig{})
	if err != nil {
		t.Fatalf("golden soak: %v", err)
	}
	if gst.Incomplete || gst.Failed != 0 {
		t.Fatalf("golden status unclean: %+v", gst)
	}

	c, err := resultcache.Open(resultcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := experiments.RunSoakCampaign(context.Background(), warmOpts, structures,
		experiments.CampaignConfig{Cache: c}); err != nil {
		t.Fatalf("warming soak: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	reports, st, err := experiments.RunSoakOn(ctx, fullOpts, structures, Config{
		Workers:       []string{"http://127.0.0.1:1"},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
		Cache:         c,
		Logf:          t.Logf,
	}.Run)
	if err != nil {
		t.Fatalf("fabric soak: %v", err)
	}
	if st.Incomplete || st.Failed != 0 {
		t.Fatalf("fabric status unclean: %+v", st)
	}
	got, _ := json.Marshal(reports)
	want, _ := json.Marshal(golden)
	if !bytes.Equal(got, want) {
		t.Fatalf("partially-cached soak diverged from single-node golden:\n got %s\nwant %s", got, want)
	}
	if s := c.Stats(); s.Hits < 2 {
		t.Fatalf("expected the 2 warmed trials to pre-merge as hits, stats %+v", s)
	}
}
