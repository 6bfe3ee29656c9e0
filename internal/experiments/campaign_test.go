package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ftspm/internal/campaign"
	"ftspm/internal/core"
)

// summaryBytes renders the sweep summary exactly as `ftspm-bench -json`
// does, so "byte-identical report" means the user-visible artifact.
func summaryBytes(t *testing.T, sw *Sweep) []byte {
	t.Helper()
	s, err := Summarize(sw)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return []byte(b.String())
}

// TestSweepCrashResumeByteIdentical kills a checkpointed sweep after a
// handful of jobs, resumes it, and demands the final summary be
// byte-identical to an uninterrupted run — the tentpole guarantee.
func TestSweepCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	opts := Options{Scale: 0.02}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	cc := CampaignConfig{Checkpoint: path, Workers: 2,
		onJobResult: func(campaign.Result[json.RawMessage]) {
			if done++; done == 5 {
				cancel() // the "crash": drain after 5 finished jobs
			}
		}}
	sw1, st1, err := RunSweepCampaign(ctx, opts, cc)
	if !errors.Is(err, campaign.ErrIncomplete) {
		t.Fatalf("interrupted run: err = %v, want ErrIncomplete", err)
	}
	if sw1 == nil || !st1.Incomplete || st1.Pending == 0 {
		t.Fatalf("interrupted run salvaged nothing: %+v", st1)
	}
	if st1.Completed == 0 {
		t.Fatal("interrupted run journaled no jobs")
	}

	// Resume: journaled jobs are skipped, the rest run, the report is
	// complete.
	sw2, st2, err := RunSweepCampaign(context.Background(), opts,
		CampaignConfig{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Resumed != st1.Completed {
		t.Errorf("resumed %d jobs, journal held %d", st2.Resumed, st1.Completed)
	}
	if st2.Incomplete || st2.Failed > 0 {
		t.Fatalf("resumed run not clean: %+v", st2)
	}

	uninterrupted, err := runSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	got, want := summaryBytes(t, sw2), summaryBytes(t, uninterrupted)
	if string(got) != string(want) {
		t.Fatalf("resumed summary differs from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
	}
}

// TestSweepPanicIsolatedToOneJob injects a panic into exactly one
// (workload, structure) job and requires the rest of the campaign to
// complete, with the poisoned job recorded failed with its stack.
func TestSweepPanicIsolatedToOneJob(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	const victim = "sha"
	sweepJobHook = func(w string, s core.Structure) {
		if w == victim && s == core.StructFTSPM {
			panic("injected sweep panic")
		}
	}
	defer func() { sweepJobHook = nil }()

	opts := Options{Scale: 0.02}
	sw, st, err := RunSweepCampaign(context.Background(), opts, CampaignConfig{})
	if err != nil {
		t.Fatalf("campaign error (panic escaped isolation?): %v", err)
	}
	if st.Failed != 1 || len(st.Failures) != 1 {
		t.Fatalf("want exactly one failure, got %+v", st)
	}
	f := st.Failures[0]
	if f.ID != "sweep/sha/FTSPM" {
		t.Errorf("failed job ID = %q", f.ID)
	}
	if !strings.Contains(f.Error, "injected sweep panic") {
		t.Errorf("failure error %q does not name the panic", f.Error)
	}
	if err := st.FirstFailure(); err == nil || !strings.Contains(err.Error(), "injected sweep panic") {
		t.Errorf("FirstFailure() = %v, want the panicked job's error", err)
	}
	if !strings.Contains(f.Stack, "runSweepJob") {
		t.Errorf("failure stack does not reach the job body:\n%s", f.Stack)
	}
	if sw.Has(victim, core.StructFTSPM) {
		t.Error("poisoned cell reported an outcome")
	}
	// Every other cell completed, including the victim workload on the
	// other structures (the panic fired before profiling, so the shared
	// profile was computed by a healthy job).
	for _, w := range sw.Workloads {
		for _, s := range core.Structures() {
			if w == victim && s == core.StructFTSPM {
				continue
			}
			if !sw.Has(w, s) {
				t.Errorf("missing outcome %s/%v", w, s)
			}
		}
	}
}

func soakTestOptions() SoakOptions {
	return SoakOptions{
		Workload:         "crc32",
		Trials:           6,
		Scale:            0.02,
		StrikesPerAccess: 0.02,
		Seed:             7,
	}
}

// TestRunSoakCampaignMatchesRunSoak pins the runner's independence: an
// in-memory soak of the options' own structure and a journaled,
// single-worker soak of the same structure, listed explicitly, produce
// identical reports.
func TestRunSoakCampaignMatchesRunSoak(t *testing.T) {
	o := soakTestOptions()
	o.Structure = core.StructFTSPM
	want, err := runSoak(o)
	if err != nil {
		t.Fatal(err)
	}
	cc := CampaignConfig{Checkpoint: filepath.Join(t.TempDir(), "soak.ckpt"), Workers: 1}
	got, st, err := RunSoakOn(context.Background(), o, []core.Structure{core.StructFTSPM}, cc.RunLocal)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != 0 || st.Incomplete {
		t.Fatalf("campaign not clean: %+v", st)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("campaign report diverged:\n%+v\nvs\n%+v", got[0], want)
	}
}

// TestSoakCrashResumeByteIdentical is the soak-side byte-identical
// guarantee, across a multi-structure campaign sharing one checkpoint.
func TestSoakCrashResumeByteIdentical(t *testing.T) {
	structs := []core.Structure{core.StructFTSPM, core.StructPureSRAM}
	base := soakTestOptions()
	path := filepath.Join(t.TempDir(), "soak.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	cc := CampaignConfig{Checkpoint: path, Workers: 2,
		onJobResult: func(campaign.Result[json.RawMessage]) {
			if done++; done == 3 {
				cancel()
			}
		}}
	_, st1, err := RunSoakCampaign(ctx, base, structs, cc)
	if !errors.Is(err, campaign.ErrIncomplete) {
		t.Fatalf("interrupted run: err = %v, want ErrIncomplete", err)
	}
	if st1.Completed == 0 || st1.Pending == 0 {
		t.Fatalf("unexpected interrupted status: %+v", st1)
	}

	resumed, st2, err := RunSoakCampaign(context.Background(), base, structs,
		CampaignConfig{Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Resumed != st1.Completed || st2.Incomplete {
		t.Fatalf("resume status: %+v (interrupted: %+v)", st2, st1)
	}

	uninterrupted, _, err := RunSoakCampaign(context.Background(), base, structs, CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(resumed, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(uninterrupted, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed reports differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestSoakResumeConfigMismatchRejected proves a checkpoint cannot be
// silently reused for a differently-configured campaign.
func TestSoakResumeConfigMismatchRejected(t *testing.T) {
	base := soakTestOptions()
	base.Trials = 2
	structs := []core.Structure{core.StructFTSPM}
	path := filepath.Join(t.TempDir(), "soak.ckpt")
	if _, _, err := RunSoakCampaign(context.Background(), base, structs,
		CampaignConfig{Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	base.Seed++ // any knob change must invalidate the journal
	_, _, err := RunSoakCampaign(context.Background(), base, structs,
		CampaignConfig{Checkpoint: path, Resume: true})
	if !errors.Is(err, campaign.ErrConfigHashMismatch) {
		t.Fatalf("err = %v, want ErrConfigHashMismatch", err)
	}
}

// TestCampaignConfigValidation covers the flag-combination rules the
// cmds rely on for their usage exit code.
func TestCampaignConfigValidation(t *testing.T) {
	if err := (CampaignConfig{Resume: true}).Validate(); !campaign.IsUsage(err) {
		t.Errorf("resume without checkpoint: err = %v, want usage error", err)
	}
	if err := (CampaignConfig{Retries: -1}).Validate(); !campaign.IsUsage(err) {
		t.Errorf("negative retries: err = %v, want usage error", err)
	}
	if err := (CampaignConfig{JobTimeout: -1}).Validate(); !campaign.IsUsage(err) {
		t.Errorf("negative timeout: err = %v, want usage error", err)
	}
	if err := (CampaignConfig{Checkpoint: "x", Resume: true, Retries: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
