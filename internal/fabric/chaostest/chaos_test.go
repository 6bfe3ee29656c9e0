package chaostest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/fabric"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A 3-worker sweep where one worker sheds its first placements, one is
// killed mid-stream, and one hangs mid-stream until the lease watchdog
// reaps it: the merged sweep must still be byte-identical to a
// single-node run, with nothing pending and nothing failed.
func TestChaosSweepByteIdenticalUnderKillHangShed(t *testing.T) {
	opts := experiments.Options{Scale: 0.02}
	golden, gst, err := experiments.RunSweepCampaign(context.Background(), opts, experiments.CampaignConfig{})
	if err != nil {
		t.Fatalf("golden sweep: %v", err)
	}
	if gst.Incomplete || gst.Failed != 0 {
		t.Fatalf("golden status unclean: %+v", gst)
	}

	shedder := New(t)
	shedder.SetScript(Script{KillAfterLines: Off, HangAfterLines: Off, Shed429: 2})
	killer := New(t)
	killer.SetScript(Script{KillAfterLines: 2, HangAfterLines: Off, Once: true})
	hanger := New(t)
	hanger.SetScript(Script{KillAfterLines: Off, HangAfterLines: 1, Once: true})

	sw, st, err := fabric.RunSweep(context.Background(), fabric.Config{
		Workers:       []string{shedder.URL(), killer.URL(), hanger.URL()},
		ChunkSize:     3,
		Lease:         1500 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		MaxPlacements: 5,
		Logf:          t.Logf,
	}, opts)
	if err != nil {
		t.Fatalf("fabric sweep: %v", err)
	}
	if st.Incomplete || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("fabric status unclean: %+v", st)
	}
	if got, want := mustJSON(t, sw), mustJSON(t, golden); !bytes.Equal(got, want) {
		t.Fatalf("distributed sweep diverged from single-node golden:\n got %s\nwant %s", got, want)
	}
}

// With every worker down, the coordinator must degrade to local
// execution and still finish the campaign byte-identical to a
// single-node run.
func TestChaosSoakAllWorkersDownFallsBackToLocal(t *testing.T) {
	base := experiments.SoakOptions{Trials: 3, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 11}
	structures := []core.Structure{core.StructFTSPM, core.StructPureSRAM}
	golden, gst, err := experiments.RunSoakCampaign(context.Background(), base, structures, experiments.CampaignConfig{})
	if err != nil {
		t.Fatalf("golden soak: %v", err)
	}
	if gst.Incomplete || gst.Failed != 0 {
		t.Fatalf("golden status unclean: %+v", gst)
	}

	w1, w2 := New(t), New(t)
	w1.SetDown(true)
	w2.SetDown(true)

	reports, st, err := experiments.RunSoakOn(context.Background(), base, structures, fabric.Config{
		Workers:       []string{w1.URL(), w2.URL()},
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		Logf:          t.Logf,
	}.Run)
	if err != nil {
		t.Fatalf("fabric soak with all workers down: %v", err)
	}
	if st.Incomplete || st.Failed != 0 {
		t.Fatalf("fabric status unclean: %+v", st)
	}
	if w1.Placements()+w2.Placements() != 0 {
		t.Fatalf("down workers accepted placements: %d/%d", w1.Placements(), w2.Placements())
	}
	if got, want := mustJSON(t, reports), mustJSON(t, golden); !bytes.Equal(got, want) {
		t.Fatalf("local-fallback soak diverged from single-node golden:\n got %s\nwant %s", got, want)
	}
}

// A worker that kills every stream before the first result is a poison
// environment for every job placed on it: with no local fallback, the
// coordinator must re-place each job solo, burn its placement budget,
// quarantine it, and report the campaign incomplete instead of spinning
// forever.
func TestChaosPersistentKillerQuarantinesJobs(t *testing.T) {
	base := experiments.SoakOptions{Trials: 2, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 3}
	structures := []core.Structure{core.StructFTSPM}

	killer := New(t)
	killer.SetScript(Script{KillAfterLines: 0, HangAfterLines: Off})

	_, st, err := experiments.RunSoakOn(context.Background(), base, structures, fabric.Config{
		Workers:         []string{killer.URL()},
		ProbeInterval:   20 * time.Millisecond,
		Lease:           2 * time.Second,
		MaxPlacements:   2,
		NoLocalFallback: true,
		Logf:            t.Logf,
	}.Run)
	if !errors.Is(err, campaign.ErrIncomplete) {
		t.Fatalf("err = %v, want wrapped campaign.ErrIncomplete", err)
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want quarantine diagnosis", err)
	}
	if !st.Incomplete || st.Pending != 2 {
		t.Fatalf("status = %+v, want 2 pending (quarantined) jobs", st)
	}
	// 2 jobs × MaxPlacements lost placements each.
	if killer.Placements() < 4 {
		t.Fatalf("placements = %d, want >= 4", killer.Placements())
	}
}

// The checkpoint journal a fabric run writes is the same file a
// single-node campaign writes: a campaign interrupted on the fabric
// resumes locally, and the final report matches the uninterrupted
// golden byte for byte (cross-executor resume interop).
func TestChaosFabricCheckpointResumesLocally(t *testing.T) {
	base := experiments.SoakOptions{Trials: 4, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 17}
	structures := []core.Structure{core.StructFTSPM}
	golden, _, err := experiments.RunSoakCampaign(context.Background(), base, structures, experiments.CampaignConfig{})
	if err != nil {
		t.Fatalf("golden soak: %v", err)
	}

	ckpt := t.TempDir() + "/fabric.ckpt"
	w := New(t)
	w.SetScript(Script{KillAfterLines: 2, HangAfterLines: Off}) // every placement dies after 2 results

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var fabErr error
	go func() {
		defer close(done)
		_, _, fabErr = experiments.RunSoakOn(ctx, base, structures, fabric.Config{
			Workers:         []string{w.URL()},
			ChunkSize:       4,
			ProbeInterval:   20 * time.Millisecond,
			MaxPlacements:   2,
			NoLocalFallback: true,
			Checkpoint:      ckpt,
			Logf:            t.Logf,
		}.Run)
	}()
	// Let it merge some results, then drain the coordinator mid-flight.
	time.Sleep(400 * time.Millisecond)
	cancel()
	<-done
	if fabErr == nil {
		t.Log("fabric run finished before the drain; resume covers 0 pending jobs")
	} else if !errors.Is(fabErr, campaign.ErrIncomplete) {
		t.Fatalf("fabric err = %v, want wrapped campaign.ErrIncomplete", fabErr)
	}

	// Resume the same checkpoint with the plain single-node runner.
	reports, st, err := experiments.RunSoakCampaign(context.Background(), base, structures,
		experiments.CampaignConfig{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("local resume of fabric checkpoint: %v", err)
	}
	if st.Incomplete || st.Failed != 0 {
		t.Fatalf("resumed status unclean: %+v", st)
	}
	if got, want := mustJSON(t, reports), mustJSON(t, golden); !bytes.Equal(got, want) {
		t.Fatalf("resumed report diverged from golden:\n got %s\nwant %s", got, want)
	}
}
