package chaostest

import (
	"bytes"
	"context"
	"testing"
	"time"

	"ftspm/internal/core"
	"ftspm/internal/experiments"
	"ftspm/internal/fabric"
	"ftspm/internal/server"
)

// Tentpole acceptance: a byzantine worker that silently corrupts every
// payload it computes — and then honestly checksums the corrupted bytes,
// so attestation alone cannot catch it — must be convicted by audit
// re-execution, its results revoked and re-run elsewhere, and the merged
// report must still be byte-identical to a single-node golden run. The
// divergence is itemized in the campaign status like an SDC count.
func TestChaosByzantineWorkerQuarantinedByteIdentical(t *testing.T) {
	base := experiments.SoakOptions{Trials: 3, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 29}
	structures := []core.Structure{core.StructFTSPM, core.StructPureSRAM}
	golden, gst, err := experiments.RunSoakCampaign(context.Background(), base, structures, experiments.CampaignConfig{})
	if err != nil {
		t.Fatalf("golden soak: %v", err)
	}
	if gst.Incomplete || gst.Failed != 0 {
		t.Fatalf("golden status unclean: %+v", gst)
	}

	byz := NewWithServerConfig(t, server.Config{ChaosCorruptFrac: 1})
	honest := New(t)
	// Slow the honest worker's placements slightly so the byzantine one
	// is guaranteed to pop chunks before the campaign drains.
	honest.SetScript(Script{KillAfterLines: Off, HangAfterLines: Off, SlowStart: 25 * time.Millisecond})

	reports, st, err := experiments.RunSoakOn(context.Background(), base, structures, fabric.Config{
		Workers:       []string{byz.URL(), honest.URL()},
		ChunkSize:     1,
		Lease:         2 * time.Second,
		ProbeInterval: 20 * time.Millisecond,
		MaxPlacements: 5,
		AuditFrac:     1,
		Logf:          t.Logf,
	}.Run)
	if err != nil {
		t.Fatalf("fabric soak with byzantine worker: %v", err)
	}
	if st.Incomplete || st.Failed != 0 || st.Pending != 0 {
		t.Fatalf("fabric status unclean: %+v", st)
	}
	if byz.Placements() == 0 {
		t.Fatal("byzantine worker was never placed on; the drill proved nothing")
	}

	if st.Audit == nil {
		t.Fatal("no audit summary in campaign status")
	}
	if st.Audit.Audited == 0 {
		t.Fatalf("audit summary counts zero re-executions: %+v", st.Audit)
	}
	if len(st.Audit.Divergences) < 1 {
		t.Fatalf("corrupter produced no itemized divergence: %+v", st.Audit)
	}
	if len(st.Audit.SuspectWorkers) == 0 {
		t.Fatalf("corrupter not convicted: %+v", st.Audit)
	}
	for _, w := range st.Audit.SuspectWorkers {
		if w != byz.URL() {
			t.Fatalf("honest worker %s convicted; suspects %v", w, st.Audit.SuspectWorkers)
		}
	}
	for _, d := range st.Audit.Divergences {
		if d.Worker != byz.URL() {
			t.Fatalf("divergence blamed on %s, want %s", d.Worker, byz.URL())
		}
		if d.GotSum == d.WantSum {
			t.Fatalf("divergence with equal sums: %+v", d)
		}
	}

	if got, want := mustJSON(t, reports), mustJSON(t, golden); !bytes.Equal(got, want) {
		t.Fatalf("report with byzantine worker diverged from single-node golden:\n got %s\nwant %s", got, want)
	}
}

// A worker running a different build (foreign fingerprint) is refused at
// placement time — version skew across the fleet silently changes
// results, so the coordinator must never place on it. The campaign
// completes on the matching worker, byte-identical to the golden.
func TestChaosFingerprintSkewRefusedAtPlacement(t *testing.T) {
	base := experiments.SoakOptions{Trials: 2, Scale: 0.02, StrikesPerAccess: 0.02, Seed: 5}
	structures := []core.Structure{core.StructFTSPM}
	golden, _, err := experiments.RunSoakCampaign(context.Background(), base, structures, experiments.CampaignConfig{})
	if err != nil {
		t.Fatalf("golden soak: %v", err)
	}

	skewed := NewWithServerConfig(t, server.Config{Fingerprint: "fp-skewed-build"})
	honest := New(t)

	reports, st, err := experiments.RunSoakOn(context.Background(), base, structures, fabric.Config{
		Workers:       []string{skewed.URL(), honest.URL()},
		ProbeInterval: 20 * time.Millisecond,
		Logf:          t.Logf,
	}.Run)
	if err != nil {
		t.Fatalf("fabric soak with skewed worker: %v", err)
	}
	if st.Incomplete || st.Failed != 0 {
		t.Fatalf("fabric status unclean: %+v", st)
	}
	if skewed.Placements() != 0 {
		t.Fatalf("version-skewed worker accepted %d placements, want 0", skewed.Placements())
	}
	if got, want := mustJSON(t, reports), mustJSON(t, golden); !bytes.Equal(got, want) {
		t.Fatalf("report with skewed worker diverged from golden:\n got %s\nwant %s", got, want)
	}
}
